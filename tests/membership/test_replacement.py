"""Cluster-level membership: live host replacement end to end.

The protocol suites (test_protocol_reconfig) pin the voter-set mechanics
in isolation; these tests drive the whole deployment — machine layout,
router, retrying sessions, history checker — through
`ShardedCluster.replace_host` / `add_replica` / `remove_replica` and hold
the same client-visible contract as the reshard experiments: zero lost or
duplicated acks, zero duplicate executions, per-shard linearizability,
and traffic on both sides of the replacement window.

`REPRO_BENCH_SCALE` (default 0.3) scales client counts and durations,
matching the CI membership leg.
"""

import os

import pytest

from repro.bench.experiments import membership_spec
from repro.bench.live import run_membership_experiment
from repro.shard.cluster import (
    ShardedCluster,
    ShardedSpec,
    UnsupportedProtocolError,
)
from repro.shard.nemesis import Nemesis
from repro.sim.units import sec
from repro.workload.ycsb import WorkloadConfig

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))

FAMILIES = [
    pytest.param("raft", "joint", id="raft-joint"),
    pytest.param("multipaxos", "alpha", id="multipaxos-alpha"),
]


@pytest.mark.parametrize("protocol,kind", FAMILIES)
def test_replace_host_contract(protocol, kind):
    """Kill one data machine mid-run, splice in a replacement through the
    protocol's own reconfiguration style, and check the ack contract."""
    spec = membership_spec(scale=SCALE, seed=3, protocol=protocol)
    result = run_membership_experiment(ShardedCluster(spec))

    assert result.kind == kind
    assert result.replacement_completed
    assert result.replacement_host is not None
    assert result.groups_changed >= 1
    assert result.config_changes == result.groups_changed

    # The contract: a permanently dead machine may delay acks (clients
    # re-route on retry timeout) but never lose, duplicate, or re-execute
    # an acknowledged command.
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.linearizable

    # Real work on both sides of the window.
    assert result.completed > 0
    assert result.pre_throughput > 0
    assert result.post_throughput > 0


@pytest.mark.parametrize("protocol", ["raft", "multipaxos"])
def test_nemesis_host_replace_schedule(protocol):
    """The same fault through the nemesis schedule (`host_replace`): the
    nemesis picks a random alive data machine and replaces it live."""
    spec = membership_spec(scale=SCALE, seed=5, protocol=protocol,
                           # park the experiment's own trigger past the
                           # run end; the nemesis drives the replacement
                           replace_at_s=1000.0)
    cluster = ShardedCluster(spec)
    nemesis = Nemesis(cluster, seed=5)
    nemesis.host_replace_at(0.3 * spec.duration_s)
    result = run_membership_experiment(cluster)
    assert nemesis.host_replaces == 1
    assert result.config_changes >= 1
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.linearizable


@pytest.mark.parametrize("protocol,kind", FAMILIES)
def test_add_then_remove_replica(protocol, kind):
    """Grow a group by one voter, then shrink it again — two logged
    changes with no machine death involved."""
    spec = ShardedSpec(
        protocol=protocol, num_shards=2, placement="spread",
        clients_per_region=max(1, round(2 * SCALE / 0.3)),
        workload=WorkloadConfig(read_fraction=0.2, conflict_rate=0.0,
                                records=200, value_size=64),
        duration_s=max(6.0, 6.0 * SCALE / 0.3),
        warmup_s=0.5, cooldown_s=0.5, seed=11,
        check_history=True, hosts_per_site=1)
    cluster = ShardedCluster(spec)
    original = list(cluster.members[0])
    site = cluster.groups[0][original[0]].site
    leader_name = f"g0_r_{cluster.leaders[0]}"
    victim = next(m for m in original if m != leader_name)
    added = {}

    # α=8 keeps the window short at this trickle of load; joint ignores it.
    cluster.sim.schedule_at(
        sec(1.0), lambda: added.update(
            name=cluster.add_replica(0, site, alpha=8)))
    cluster.sim.schedule_at(
        sec(3.0), lambda: cluster.remove_replica(0, victim, alpha=8))
    cluster.sim.run(until=sec(spec.duration_s))

    assert cluster.config_epochs[0] == 2
    assert cluster.metrics.counters.get("config_changes", 0) == 2
    joiner = cluster.groups[0][added["name"]]
    assert added["name"] in cluster.members[0]
    assert victim not in cluster.members[0]
    assert len(cluster.members[0]) == len(original)
    assert not joiner.joining, "joiner still fenced after committed config"
    assert joiner.store.applied_count > 0, "joiner never caught up"
    assert cluster.groups[0][victim].retired
    # The untouched group never changed.
    assert cluster.config_epochs[1] == 0
    for shard, checker in sorted(cluster.checkers.items()):
        assert not checker.check_all(), f"shard {shard} not linearizable"


def test_leaderless_protocols_are_rejected():
    """Mencius has no leader to drive a logged config change through;
    `replace_host` must refuse up front rather than wedge the group."""
    spec = ShardedSpec(
        protocol="mencius", num_shards=1, placement="spread",
        clients_per_region=1,
        workload=WorkloadConfig(records=50, value_size=64),
        duration_s=1.0, seed=1, hosts_per_site=1)
    cluster = ShardedCluster(spec)
    target = sorted(cluster.data_host_names)[0]
    with pytest.raises(UnsupportedProtocolError):
        cluster.replace_host(target)
