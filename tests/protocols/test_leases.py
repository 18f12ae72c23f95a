"""Quorum-lease manager."""

import pytest

from repro.protocols.quorum_lease import RaftStarPQLReplica
from repro.sim.units import ms, sec


def build(cluster_factory, **kwargs):
    kwargs.setdefault("config_kwargs", {})
    kwargs["config_kwargs"].setdefault("lease_duration", ms(500))
    kwargs["config_kwargs"].setdefault("lease_renew_interval", ms(100))
    return cluster_factory(RaftStarPQLReplica, **kwargs)


def test_everyone_gets_quorum_lease(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    for replica in cluster.values():
        assert replica.leases.has_quorum_lease()


def test_grant_counts_include_self(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    assert cluster["s0"].leases.valid_grant_count() == 3


def test_active_holders_tracks_acks(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    holders = cluster["s0"].leases.active_holders()
    assert holders == frozenset({"s0", "s1", "s2"})


def test_lease_expires_without_renewal(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    # cut s2 off: its held leases lapse once the last grants expire
    cluster.network.isolate("s2")
    cluster.run_ms(900)
    assert not cluster["s2"].leases.has_quorum_lease()


def test_crashed_holder_drops_out_of_active_set(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    cluster["s2"].crash()
    cluster.run_ms(900)
    assert "s2" not in cluster["s0"].leases.active_holders()


def test_partitioned_replica_loses_lease_but_majority_keeps_it(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    cluster.network.isolate("s1")
    cluster.run_ms(900)
    assert not cluster["s1"].leases.has_quorum_lease()
    assert cluster["s0"].leases.has_quorum_lease()
    assert cluster["s2"].leases.has_quorum_lease()


def test_lease_restored_after_heal(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    cluster.network.isolate("s1")
    cluster.run_ms(900)
    cluster.network.heal()
    cluster.run_ms(300)
    assert cluster["s1"].leases.has_quorum_lease()


def test_crash_clears_lease_state(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    replica = cluster["s1"]
    replica.crash()
    assert replica.leases.valid_grant_count() == 0
