"""Experiment harness."""

import pytest

from repro.bench.harness import Cluster, ExperimentSpec, run_experiment
from repro.protocols.registry import PROTOCOLS
from repro.workload.ycsb import WorkloadConfig


def small_spec(**kwargs):
    defaults = dict(
        protocol="raft", clients_per_region=2, duration_s=3.0,
        warmup_s=1.0, cooldown_s=0.5,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_all_protocols_registered():
    assert set(PROTOCOLS) == {
        "raft", "raftstar", "raftstar-pql", "leaderlease", "multipaxos",
        "paxos-pql", "mencius", "coorpaxos",
    }


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_every_protocol_completes_requests(protocol):
    spec = small_spec(protocol=protocol, check_history=True)
    if protocol in ("mencius", "coorpaxos"):
        spec = spec.with_(execution_mode="ordered",
                          workload=WorkloadConfig(read_fraction=0.0,
                                                  conflict_rate=0.0))
    result = run_experiment(spec)
    assert result.completed > 0
    assert result.violations == []


@pytest.mark.parametrize("full_check", [True, False])
def test_full_check_records_client_events_through_the_shared_hook(full_check):
    cluster = Cluster(small_spec(check_history=True, full_check=full_check))
    cluster.run()
    assert bool(cluster.checker.events) is full_check
    assert cluster.checker.check_all() == []


def test_throughput_positive():
    result = run_experiment(small_spec())
    assert result.throughput_ops > 0


def test_latency_split_has_both_groups():
    result = run_experiment(small_spec())
    assert result.read_latency["leader"]["count"] > 0
    assert result.read_latency["followers"]["count"] > 0


def test_latency_accessor():
    result = run_experiment(small_spec())
    assert result.latency_ms("leader", "read", "p50") > 0


def test_same_seed_reproducible():
    a = run_experiment(small_spec(seed=5))
    b = run_experiment(small_spec(seed=5))
    assert a.completed == b.completed
    assert a.read_latency == b.read_latency


def test_different_seeds_differ():
    a = run_experiment(small_spec(seed=5))
    b = run_experiment(small_spec(seed=6))
    assert a.read_latency != b.read_latency


def test_with_override():
    spec = small_spec()
    changed = spec.with_(protocol="raftstar")
    assert changed.protocol == "raftstar" and spec.protocol == "raft"
