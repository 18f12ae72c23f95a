"""Cluster configuration."""

import pytest

from repro.protocols.config import ClusterConfig, geo_cluster, single_site_cluster


def test_quorum_math_odd():
    cfg = single_site_cluster(5)
    assert cfg.n == 5 and cfg.majority == 3


def test_quorum_math_even():
    cfg = single_site_cluster(4)
    assert cfg.majority == 2


def test_quorum_math_three():
    cfg = single_site_cluster(3)
    assert cfg.majority == 2


def test_peers_of_excludes_self():
    cfg = single_site_cluster(3)
    assert set(cfg.peers_of("s0")) == {"s1", "s2"}


def test_owner_round_robin():
    cfg = single_site_cluster(3)
    owners = [cfg.owner_of(i) for i in range(6)]
    assert owners == ["s0", "s1", "s2", "s0", "s1", "s2"]
    assert cfg.owned_by("s1", 4)


def test_empty_replicas_rejected():
    with pytest.raises(ValueError):
        ClusterConfig(replicas={})


def test_unknown_initial_leader_rejected():
    with pytest.raises(ValueError):
        ClusterConfig(replicas={"a": "a"}, initial_leader="ghost")


def test_geo_cluster_naming():
    cfg = geo_cluster(["oregon", "seoul"])
    assert cfg.names == ("r_oregon", "r_seoul")
    assert cfg.site_of("r_seoul") == "seoul"


def test_site_lookup():
    cfg = single_site_cluster(2, prefix="n")
    assert cfg.site_of("n1") == "n1"
