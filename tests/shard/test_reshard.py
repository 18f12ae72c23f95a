"""Live resharding: transition plans, epoch ownership, and the full
migration under load."""

import json

import pytest

from repro.protocols.messages import ShardMap
from repro.protocols.types import Command, OpType
from repro.bench.live import ReshardSpec, run_reshard_experiment
from repro.shard.cluster import ShardedCluster, ShardedSpec
from repro.shard.partition import (
    HASH_SPACE,
    HashRangePartitioner,
    VersionedPartitioner,
    add_range,
    plan_transition,
    ranges_contain,
    subtract_range,
)
from repro.shard.reshard import ShardOwnership
from repro.shard.router import ShardRouter, ShardRoutedClient
from repro.sim.units import sec
from repro.workload.ycsb import WorkloadConfig

WORKLOAD = WorkloadConfig(read_fraction=0.5, conflict_rate=0.0, records=1000,
                          value_size=64)


# -- transition plans ---------------------------------------------------------


def test_split_plan_2_to_4():
    old, new = HashRangePartitioner(2), HashRangePartitioner(4)
    moves = plan_transition(old, new)
    quarter = HASH_SPACE // 4
    assert [(m.donor, m.recipient, m.start, m.end) for m in moves] == [
        (0, 1, quarter, 2 * quarter),
        (1, 2, 2 * quarter, 3 * quarter),
        (1, 3, 3 * quarter, HASH_SPACE),
    ]


def test_merge_plan_4_to_2():
    moves = plan_transition(HashRangePartitioner(4), HashRangePartitioner(2))
    quarter = HASH_SPACE // 4
    assert [(m.donor, m.recipient, m.start, m.end) for m in moves] == [
        (1, 0, quarter, 2 * quarter),
        (2, 1, 2 * quarter, 3 * quarter),
        (3, 1, 3 * quarter, HASH_SPACE),
    ]


def test_identity_plan_is_empty():
    assert plan_transition(HashRangePartitioner(3), HashRangePartitioner(3)) == []


def test_plan_covers_every_ownership_change():
    """Property: after applying the plan's moves to the old ranges, every
    shard owns exactly its new range."""
    old, new = HashRangePartitioner(3), HashRangePartitioner(5)
    moves = plan_transition(old, new)
    ranges = {s: [(old.range_of(s).start, old.range_of(s).stop)]
              for s in range(old.num_shards)}
    for s in range(old.num_shards, new.num_shards):
        ranges[s] = []
    for m in moves:
        ranges[m.donor] = subtract_range(ranges[m.donor], m.start, m.end)
        ranges[m.recipient] = add_range(ranges[m.recipient], m.start, m.end)
    for s in range(new.num_shards):
        span = new.range_of(s)
        assert ranges[s] == [(span.start, span.stop)]


def test_versioned_partitioner_advances_epoch():
    v0 = VersionedPartitioner.initial(2)
    assert v0.epoch == 0
    v1, moves = v0.advanced(4)
    assert v1.epoch == 1 and v1.num_shards == 4
    assert len(moves) == 3
    assert v0.num_shards == 2  # immutable snapshot


# -- range set algebra --------------------------------------------------------


def test_range_algebra():
    ranges = [(0, 100)]
    ranges = subtract_range(ranges, 25, 50)
    assert ranges == [(0, 25), (50, 100)]
    ranges = add_range(ranges, 25, 50)
    assert ranges == [(0, 100)]
    assert ranges_contain(ranges, 99) and not ranges_contain(ranges, 100)
    assert subtract_range([(0, 10)], 0, 10) == []


# -- per-replica ownership ----------------------------------------------------


def meta(lo, hi, epoch=1, num_shards=4):
    return json.dumps({"lo": lo, "hi": hi, "epoch": epoch,
                       "num_shards": num_shards})


def test_ownership_advances_on_applied_migrations():
    owner = ShardOwnership(0, VersionedPartitioner.initial(2))
    assert owner.epoch == 0
    quarter = HASH_SPACE // 4
    out = Command(op=OpType.MIGRATE_OUT, key="r",
                  value=meta(quarter, 2 * quarter), client_id="__reshard__",
                  seq=1)
    owner.on_apply("g0_r_x", 0, out)
    assert owner.epoch == 1
    assert owner.ranges == [(0, quarter)]
    # idempotent under dedup-suppressed duplicates
    owner.on_apply("g0_r_x", 0, out)
    assert owner.ranges == [(0, quarter)]


def test_new_group_owns_nothing_until_import():
    target = VersionedPartitioner(HashRangePartitioner(4), epoch=1)
    owner = ShardOwnership(2, target, owned=False)
    assert owner.ranges == []
    span = target.range_of(2)
    probe = Command(op=OpType.GET, key="k1", client_id="c", seq=1)
    # pre-import: the guard hints (possibly at itself — the router's hop
    # cap turns that into backoff), never claims to serve
    assert owner.guard(probe) is not None
    inn = Command(op=OpType.MIGRATE_IN, key="r",
                  value=meta(span.start, span.stop), client_id="__reshard__",
                  seq=1)
    owner.on_apply("g2_r_x", 0, inn)
    assert owner.ranges == [(span.start, span.stop)]
    assert owner.shard_map() == ShardMap(epoch=1, num_shards=4)


# -- the live transition, end to end -----------------------------------------


def reshard_spec(**overrides):
    defaults = dict(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=3, workload=WORKLOAD,
        duration_s=5.0, warmup_s=1.0, cooldown_s=0.5, seed=3,
        check_history=True, reshard_to=4, reshard_at_s=1.5,
    )
    defaults.update(overrides)
    return ReshardSpec(**defaults)


def test_live_split_loses_and_duplicates_nothing():
    result = run_reshard_experiment(ShardedCluster(reshard_spec()))
    assert result.reshard_completed
    assert result.moves == 3
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    # no acknowledged write executed twice anywhere (store versions on the
    # final owners match the distinct acked PUTs)
    assert result.duplicate_executions == 0
    assert result.completed > 0
    assert result.linearizable
    assert set(result.violations) == {0, 1, 2, 3}
    # clients learned the new map from servers (no out-of-band config push)
    assert result.final_epoch == 1


def test_after_split_stores_hold_only_new_map_keys():
    spec = reshard_spec()
    cluster = ShardedCluster(spec)
    cluster.reshard(spec.reshard_to, at=sec(spec.reshard_at_s))
    cluster.sim.run(until=sec(spec.duration_s))
    assert cluster.reshard_completed_at is not None
    final = cluster.partitioner
    assert final.epoch == 1 and final.num_shards == 4
    for shard, replicas in cluster.groups.items():
        for replica in replicas.values():
            for key in replica.store.snapshot():
                assert final.shard_of(key) == shard
    # the new groups actually received data
    assert any(len(replica.store) > 0
               for replica in cluster.groups[2].values())
    assert any(len(replica.store) > 0
               for replica in cluster.groups[3].values())


def test_merge_returns_ranges_to_surviving_groups():
    spec = reshard_spec(num_shards=4, reshard_to=2, duration_s=5.0)
    result = run_reshard_experiment(ShardedCluster(spec))
    assert result.reshard_completed
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.linearizable


def test_reshard_while_in_progress_rejected():
    spec = reshard_spec()
    cluster = ShardedCluster(spec)
    cluster.reshard(4)
    with pytest.raises(RuntimeError):
        cluster.reshard(8)


@pytest.mark.parametrize("shards", [(2, 4), (4, 2)], ids=["split", "merge"])
@pytest.mark.parametrize("protocol", ["mencius", "coorpaxos"])
def test_mencius_groups_reshard_live(protocol, shards):
    """Mencius groups have no leader, and need none: the replica a step
    reaches proposes it in its own slot, and the coordinator's ring
    rotates off a dead first hop.  Split and merge keep the contract."""
    num_shards, reshard_to = shards
    result = run_reshard_experiment(ShardedCluster(reshard_spec(
        protocol=protocol, num_shards=num_shards, reshard_to=reshard_to)))
    assert result.reshard_completed
    assert result.final_epoch == 1
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.completed > 0
    assert result.linearizable
    assert set(result.violations) == set(range(max(shards)))


# -- stale routing tables across an epoch boundary ---------------------------


def snapshot_router(cluster):
    """A routing table frozen at the cluster's *current* epoch (a client
    configured before the reshard)."""
    return ShardRouter(cluster.versioned,
                       {shard: dict(table)
                        for shard, table in cluster.router.local_replica.items()},
                       sites=cluster.topology.sites)


def test_stale_epoch_client_repaired_by_shipped_map():
    """The redirect path the PR-1 docstring admitted 'never fires' with a
    fresh table: a client built against epoch 0 after the cluster moved to
    epoch 1 pays one extra hop, receives the new map with the redirect,
    and routes correctly from then on."""
    spec = reshard_spec(clients_per_region=0, duration_s=6.0)
    cluster = ShardedCluster(spec)
    old_router = snapshot_router(cluster)
    cluster.reshard(4)
    cluster.sim.run(until=sec(2.0))  # migration completes with no load
    assert cluster.reshard_completed_at is not None

    client = ShardRoutedClient(
        "c_stale", cluster.sim, cluster.network, "oregon", old_router,
        WORKLOAD, cluster.topology.sites, cluster.rng.stream("client:stale"),
        cluster.metrics, stop_at=sec(5.5))
    cluster.sim.run(until=sec(6.0))

    assert client.completed > 10
    # the first misrouted request paid exactly one extra hop, which
    # shipped the epoch-1 map and repaired the whole table
    assert 1 <= client.redirects <= 3
    assert client.capped_redirects == 0
    assert old_router.epoch == 1
    assert old_router.num_shards == 4
    assert cluster.metrics.counters.get("redirects", 0) == client.redirects
    # after the guard fix nothing ever reached a store that does not own
    # its key
    assert cluster.filtered_count() == 0


def test_stale_epoch_request_lands_on_new_owner():
    spec = reshard_spec(clients_per_region=0, duration_s=6.0)
    cluster = ShardedCluster(spec)
    old_router = snapshot_router(cluster)
    cluster.reshard(4)
    cluster.sim.run(until=sec(2.0))

    client = ShardRoutedClient(
        "c_stale", cluster.sim, cluster.network, "seoul", old_router,
        WORKLOAD, cluster.topology.sites, cluster.rng.stream("client:stale2"),
        cluster.metrics, stop_at=sec(5.5))
    served = []
    client.on_complete_hooks.append(
        lambda command, reply, start, end: served.append((command.key,
                                                          reply.server)))
    cluster.sim.run(until=sec(6.0))
    assert served
    for key, server in served:
        shard = int(server.split("_", 1)[0][1:])
        assert shard == cluster.partitioner.shard_of(key)
