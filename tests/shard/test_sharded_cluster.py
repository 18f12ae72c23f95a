"""The sharded multi-group deployment end to end (small scale)."""

import pytest

from repro.shard import ShardedSpec, run_sharded_experiment
from repro.shard.cluster import ShardedCluster, shard_of_server
from repro.sim.topology import ec2_regions
from repro.workload.ycsb import WorkloadConfig


def small_spec(**overrides) -> ShardedSpec:
    defaults = dict(
        protocol="raft",
        num_shards=2,
        placement="spread",
        clients_per_region=2,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                records=1000),
        duration_s=3.0,
        warmup_s=0.5,
        cooldown_s=0.5,
        seed=3,
        check_history=True,
    )
    defaults.update(overrides)
    return ShardedSpec(**defaults)


def test_groups_have_distinct_names_and_leaders():
    cluster = ShardedCluster(small_spec(num_shards=3))
    names = [name for replicas in cluster.groups.values() for name in replicas]
    assert len(names) == len(set(names)) == 3 * 5
    assert cluster.leaders == {0: "oregon", 1: "ohio", 2: "ireland"}
    for shard in range(3):
        leader = cluster.leader_replica(shard)
        assert leader.name == f"g{shard}_r_{cluster.leaders[shard]}"
        assert shard_of_server(leader.name) == shard


def test_colocated_placement_pins_leaders():
    # The first site, on a topology without Oregon too.
    topology = ec2_regions(("seoul", "ohio", "ireland"))
    cluster = ShardedCluster(small_spec(placement="colocated",
                                        topology=topology))
    assert set(cluster.leaders.values()) == {topology.sites[0]}
    assert cluster.leader_replica(1).name == "g1_r_seoul"


def test_sharded_run_commits_and_stays_safe():
    result = run_sharded_experiment(small_spec())
    assert result.completed > 0
    assert result.throughput_ops > 0
    # Both groups served traffic, and every record's server parses back to
    # a live shard.
    assert set(result.per_shard_throughput) == {0, 1}
    # Correct routing: no redirects needed, no key ever reached a store
    # that does not own it.
    assert result.redirects == 0
    assert result.filtered == 0
    # Per-shard histories are linearizable.
    assert set(result.violations) == {0, 1}
    assert result.linearizable


def test_stores_only_hold_owned_keys():
    cluster = ShardedCluster(small_spec())
    cluster.run()
    for shard, replicas in cluster.groups.items():
        for replica in replicas.values():
            for key in replica.store.snapshot():
                assert cluster.partitioner.shard_of(key) == shard


def test_single_shard_matches_multi_group_plumbing():
    result = run_sharded_experiment(small_spec(num_shards=1))
    assert result.completed > 0
    assert set(result.per_shard_throughput) == {0}
    assert result.linearizable


def test_mencius_groups_supported():
    # Leaderless protocols skip the initial-leader seeding per group.
    result = run_sharded_experiment(small_spec(
        protocol="mencius", num_shards=2, duration_s=3.0,
        workload=WorkloadConfig(read_fraction=0.0, conflict_rate=0.0,
                                records=1000)))
    assert result.completed > 0
    assert result.filtered == 0


def test_unknown_placement_rejected():
    with pytest.raises(ValueError):
        ShardedCluster(small_spec(placement="everywhere"))


def test_key_filter_survives_crash_recovery():
    cluster = ShardedCluster(small_spec())
    replica = cluster.leader_replica(0)
    assert replica.store.key_filter is not None
    replica.crash()
    replica.recover()
    assert replica.store.key_filter is not None
    assert replica.ownership_guard is not None


def test_crashed_shard_leader_does_not_stall_other_shards():
    from repro.sim.units import sec

    spec = small_spec(duration_s=7.0, warmup_s=0.5, cooldown_s=0.5)
    cluster = ShardedCluster(spec)
    cluster.sim.run(until=sec(1.0))
    cluster.leader_replica(0).crash()
    result = cluster.run()  # continues to duration_s
    # shard 1 is unaffected; shard 0 resumes after its election
    late = cluster.metrics.throughput_by(
        sec(4.0), sec(6.5), key=lambda r: r.server.split("_", 1)[0])
    assert late.get("g1", 0) > 0
    assert late.get("g0", 0) > 0
    assert result.filtered == 0
    # prefix agreement still holds per shard across the fault
    for shard, checker in cluster.checkers.items():
        assert checker.check_prefix_agreement() == []
