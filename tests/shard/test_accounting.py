"""The ack/safety `Accounting` record and the bucketed timeline.

A healthy hand-sized run accounts as safe; then one swallowed ack, one
duplicated completion record and one re-executed write are planted, and
each must flip exactly its own field — and `.safe` — for the plain
sharded cluster and for the transactional one (whose identities count
transactions).
"""

import math
from dataclasses import replace

import pytest

from repro.bench.live import MembershipResult, MembershipSpec
from repro.metrics.recorder import (
    TIMELINE_BUCKET_S,
    MetricsRecorder,
    RequestRecord,
)
from repro.protocols.types import OpType
from repro.shard.cluster import Accounting, ShardedCluster, ShardedSpec
from repro.shard.txn import TxnCluster, TxnSpec
from repro.sim.units import ms, sec
from repro.workload.ycsb import WorkloadConfig

COMMON = dict(
    protocol="raft", num_shards=2, placement="spread", clients_per_region=1,
    workload=WorkloadConfig(read_fraction=0.3, conflict_rate=0.0,
                            records=100, value_size=8),
    duration_s=2.0, warmup_s=0.5, cooldown_s=0.5, seed=4, check_history=True)


def plain_cluster():
    cluster = ShardedCluster(ShardedSpec(**COMMON))
    cluster.run()
    acked_key = next(event.key for checker in cluster.checkers.values()
                     for event in checker.events if event.op is OpType.PUT)

    def swallow_ack():
        cluster.clients[0].seq += 1
    return cluster, swallow_ack, acked_key


def txn_cluster():
    cluster = TxnCluster(TxnSpec(txn_size=2, cross_shard_ratio=0.5, **COMMON))
    cluster.run()
    acked_key = next(key for event in cluster.txn_events
                     for op, key, _value in event.ops if op == "put")

    def swallow_ack():
        cluster.clients[0].txns_issued += 1
    return cluster, swallow_ack, acked_key


def changed_fields(before: Accounting, after: Accounting) -> set:
    return {name for name, value in vars(before).items()
            if vars(after)[name] != value}


@pytest.mark.parametrize("build", [plain_cluster, txn_cluster])
def test_each_planted_fault_flips_exactly_one_field(build, monkeypatch):
    cluster, swallow_ack, acked_key = build()
    healthy = cluster.accounting()
    assert healthy.completed > 0
    assert healthy.safe and healthy.describe() == "yes"

    swallow_ack()
    lost = cluster.accounting()
    assert changed_fields(healthy, lost) == {"acks_lost"}
    assert lost.acks_lost == 1 and not lost.safe
    assert "lost=1" in lost.describe()

    # Relative to `lost`: the same completion recorded twice (a cool-down
    # record, so the steady-window count does not move).
    cluster.metrics.records.append(cluster.metrics.records[-1])
    duplicated = cluster.accounting()
    assert changed_fields(lost, duplicated) == {"acks_duplicated"}
    assert duplicated.acks_duplicated == 1

    # An acknowledged write installed once more than it was acked.
    owner = cluster.groups[cluster.partitioner.shard_of(acked_key)]
    store = next(iter(owner.values())).store
    planted = dict(store.versions())
    planted[acked_key] += 1
    monkeypatch.setattr(store, "versions", lambda: planted)
    re_executed = cluster.accounting()
    assert changed_fields(duplicated, re_executed) == {"duplicate_executions"}
    assert re_executed.duplicate_executions == 1


def test_safe_is_the_whole_conjunction():
    clean = Accounting(completed=1, acks_lost=0, acks_duplicated=0,
                       duplicate_executions=0, redirects=3,
                       capped_redirects=1, filtered=2, violations={0: []})
    assert clean.safe  # redirects and boundary bounces are not violations
    for broken in (replace(clean, acks_lost=1),
                   replace(clean, acks_duplicated=1),
                   replace(clean, duplicate_executions=1),
                   replace(clean, violations={0: [], 1: ["stale read"]}),
                   replace(clean, serializability_violations=["cycle"])):
        assert not broken.safe
        assert broken.describe().startswith("NO (")


# -- the timeline -------------------------------------------------------------


def record(end_s: float, latency_ms: float) -> RequestRecord:
    end = sec(end_s)
    return RequestRecord(client="c", site="s", server="g0_r_s", op=OpType.PUT,
                         start=end - ms(latency_ms), end=end, ok=True)


def test_timeline_buckets_by_ack_time():
    metrics = MetricsRecorder()
    for latency, end_s in enumerate([0.1, 0.2, 0.49, 1.0, 1.2], start=1):
        metrics.add(record(end_s, latency_ms=10.0 * latency))
    timeline = metrics.timeline(duration_s=1.3)
    assert [start for start, _ops, _p99 in timeline] == [0.0, 0.5, 1.0]
    assert timeline[0][1] == 3 / TIMELINE_BUCKET_S
    assert timeline[0][2] == 20.0          # index int(0.99 * (n - 1))
    # An empty bucket has no p99.
    assert timeline[1][1] == 0.0 and math.isnan(timeline[1][2])
    # The last bucket is cut at the run end and rated over its real width.
    assert timeline[2][1] == pytest.approx(2 / 0.3)


def test_stall_counts_timeline_buckets():
    """The stall is counted in the timeline's own bucket width."""
    timeline = [(i * TIMELINE_BUCKET_S, ops, 1.0)
                for i, ops in enumerate([100, 100, 10, 20, 60, 100])]
    accounting = Accounting(completed=0, acks_lost=0, acks_duplicated=0,
                            duplicate_executions=0, redirects=0,
                            capped_redirects=0, filtered=0, violations={})
    result = MembershipResult(
        **vars(accounting), spec=MembershipSpec(duration_s=3.0), kind="joint",
        pre_throughput=100.0, post_throughput=100.0, timeline=timeline,
        replaced_host="h", replacement_host="h2", groups_changed=1,
        config_changes=1, replace_started_s=2 * TIMELINE_BUCKET_S,
        replace_completed_s=5 * TIMELINE_BUCKET_S)
    # Buckets 2 and 3 are inside the window and below half of `pre`.
    assert result.stall_s == 2 * TIMELINE_BUCKET_S
