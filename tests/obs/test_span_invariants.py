"""End-to-end span invariants over real runs.

The acceptance properties of the span collector: timestamps are monotonic,
per-phase durations sum to the end-to-end latency exactly (interval
attribution), a retried or redirected request folds into ONE span, and
spans survive a leader kill mid-request.
"""

import pytest

from repro.bench.experiments import pipeline_spec
from repro.bench.harness import Cluster, run_experiment
from repro.protocols.registry import PROTOCOLS
from repro.shard.cluster import ShardedCluster, ShardedSpec
from repro.shard.partition import Partitioner
from repro.shard.router import ShardRoutedClient, ShardRouter
from repro.shard.txn import TxnCluster, TxnSpec
from repro.sim.units import ms, sec
from repro.workload.session import RetryPolicy
from repro.workload.ycsb import WorkloadConfig


def _assert_well_formed(spans):
    assert spans, "no complete spans reconstructed"
    for span in spans:
        assert span.monotonic, span.trace
        assert span.events[0][1] == "submit" and span.events[-1][1] == "complete"
        assert sum(span.phase_durations().values()) == span.latency_us
        assert sum(span.budget().values()) == span.latency_us


@pytest.fixture(scope="module")
def raft_result():
    spec = pipeline_spec(0.3, seed=3, protocol="raft", depth=4).with_(obs=True)
    return run_experiment(spec)


def test_spans_monotonic_and_sums_exact(raft_result):
    _assert_well_formed(raft_result.obs.reconstruct().spans())


def test_every_completion_has_exactly_one_span(raft_result):
    """The span log and the metrics recorder agree request by request: one
    complete span per completed request, same submit/ack timestamps."""
    spans = raft_result.obs.reconstruct().spans()
    records = {(r.client, r.start, r.end)
               for r in raft_result.obs.metrics.records}
    assert len(spans) == len(records)
    for span in spans:
        client = span.trace.split(":")[0]
        assert (client, span.start, span.end) in records, span.trace


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_span_invariants_every_protocol(protocol):
    """Every registry protocol records a full span: well formed, one per
    completion, and a committed request passed through `append` first
    (local lease reads answer `server_recv -> reply` and never commit)."""
    spec = pipeline_spec(0.2, seed=3, protocol=protocol, depth=2).with_(
        obs=True)
    result = run_experiment(spec)
    spans = result.obs.reconstruct().spans()
    _assert_well_formed(spans)
    records = {(r.client, r.start, r.end) for r in result.obs.metrics.records}
    assert len(spans) == len(records)
    committed = [s for s in spans if "commit" in s.phases]
    assert committed, protocol
    for span in committed:
        phases = span.phases
        assert "append" in phases[:phases.index("commit")], (span.trace,
                                                            phases)


class _SwappedPartitioner(Partitioner):
    """A deliberately wrong ownership map: every first hop is redirected."""

    def __init__(self, inner: Partitioner) -> None:
        self.inner = inner
        self.num_shards = inner.num_shards

    def shard_of(self, key: str) -> int:
        return (self.inner.shard_of(key) + 1) % self.num_shards


def test_redirected_request_stays_one_span():
    workload = WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                              records=1000)
    cluster = ShardedCluster(ShardedSpec(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=0, workload=workload,
        duration_s=3.0, warmup_s=0.5, cooldown_s=0.5, seed=5, obs=True,
    ))
    stale = ShardRouter(_SwappedPartitioner(cluster.partitioner),
                        cluster.router.local_replica)
    client = ShardRoutedClient(
        "c_test", cluster.sim, cluster.network, "oregon", stale, workload,
        cluster.topology.sites, cluster.rng.stream("client:c_test"),
        cluster.metrics, stop_at=sec(2.5))
    cluster.obs.install([client])
    cluster.sim.run(until=sec(3.0))
    assert client.completed > 0
    assert client.redirects >= client.completed
    spans = cluster.obs.reconstruct().spans()
    _assert_well_formed(spans)
    assert len(spans) == client.completed  # one span per request, no dupes
    for span in spans:
        # The bounce is inside the span: reject + redirect + a second send
        # (the hop itself is instantaneous client-side — the cost lands in
        # the second `send` interval, the wire + queue to the right shard).
        assert "redirect" in span.phases, span.trace
        assert "reject" in span.phases, span.trace
        assert span.attempts >= 2


def test_spans_survive_leader_kill_mid_request():
    # A resend schedule fast enough that requests wiped with the old
    # leader's volatile log are retried inside the run (the default 5 s
    # base outlives a 6 s trial).
    retry = RetryPolicy(retry_timeout=ms(500), retry_cap=sec(2))
    spec = pipeline_spec(1.0, seed=7, protocol="raft", depth=4).with_(
        obs=True, check_history=False, full_check=False, retry=retry)
    cluster = Cluster(spec)
    crash_at, recover_at = sec(1.5), sec(3.0)
    leader = cluster.leader_replica
    cluster.sim.schedule(crash_at, leader.crash)
    cluster.sim.schedule(recover_at, leader.recover)
    result = cluster.run()
    recon = result.obs.reconstruct()
    spans = recon.spans()
    _assert_well_formed(spans)
    # Requests in flight at the kill fold into single well-formed spans:
    # the detour (resend, election wait) is INSIDE the span, not a dupe.
    straddling = [s for s in spans if s.start < crash_at < s.end]
    assert straddling, "no request was in flight across the leader kill"
    assert any(s.attempts >= 2 for s in straddling)
    # They waited out the election, so they dwarf the healthy-leader tail.
    before = [s.latency_us for s in spans if s.end <= crash_at]
    assert max(s.latency_us for s in straddling) > max(before)
    # The cluster kept serving: fresh requests complete after the crash.
    assert any(s.start > crash_at and s.is_complete for s in spans)
    # One span per completion, still (no duplicates across the election).
    records = {(r.client, r.start, r.end) for r in result.obs.metrics.records}
    assert len(spans) == len(records)


def test_every_acked_cross_shard_txn_has_one_complete_span():
    """A cross-shard transaction's span runs submit -> complete, its
    phases summing to the client's latency, although phase 2 goes on
    after the answer: one complete span per acknowledged transaction,
    with the ack's own start and end."""
    cluster = TxnCluster(TxnSpec(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=2,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                records=500, value_size=64),
        duration_s=4.0, warmup_s=1.0, cooldown_s=0.5, seed=3,
        txn_size=2, cross_shard_ratio=0.5, obs=True))
    cluster.run()
    acked = {(r.client, r.start, r.end) for r in cluster.metrics.records
             if r.server.startswith("txnco_")}
    assert len(acked) > 20
    spans = [s for s in cluster.obs.reconstruct().spans() if ":t" in s.trace]
    _assert_well_formed(spans)
    assert {(s.trace.split(":")[0], s.start, s.end) for s in spans} == acked
    assert len(spans) == len(acked)
    for span in spans:
        assert span.phases.count("complete") == 1
        assert "txn_prepare" in span.phases
        # The answer leaves at the last yes vote: no phase-2 step is on
        # the client's path.
        assert span.phases[-2:] == ["reply", "complete"], span.phases

