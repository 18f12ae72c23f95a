"""The PQL delta, one test body for both bindings: Raft*-PQL (the port) and
PQL on MultiPaxos (the optimization's original home) must behave the same
wherever `QuorumLease` — not the family — decides the behaviour."""

import pytest

from repro.kvstore.checker import HistoryChecker, HistoryEvent
from repro.protocols.quorum_lease import PaxosPQLReplica, RaftStarPQLReplica
from repro.protocols.types import OpType
from repro.sim.units import ms

BINDINGS = [
    pytest.param(RaftStarPQLReplica, id="raftstar-pql"),
    pytest.param(PaxosPQLReplica, id="paxos-pql"),
]


@pytest.fixture(params=BINDINGS)
def build(request, cluster_factory):
    def build(**kwargs):
        kwargs.setdefault("config_kwargs", {})
        kwargs["config_kwargs"].setdefault("lease_duration", ms(500))
        kwargs["config_kwargs"].setdefault("lease_renew_interval", ms(100))
        return cluster_factory(request.param, **kwargs)
    return build


def test_follower_serves_read_locally(build):
    cluster = build()
    cluster.run_ms(100)
    cluster.client.put("s0", "k", "v")
    cluster.run_ms(150)
    before = cluster["s2"].local_reads_served
    read = cluster.client.get("s2", "k")
    cluster.run_ms(50)
    reply = cluster.client.reply_for(read)
    assert reply is not None and reply.ok
    assert reply.value == "v"
    assert reply.local_read
    assert cluster["s2"].local_reads_served == before + 1


def test_leader_serves_read_locally_too(build):
    cluster = build()
    cluster.run_ms(100)
    read = cluster.client.get("s0", "nope")
    cluster.run_ms(50)
    assert cluster.client.reply_for(read).local_read


def test_local_read_fast_vs_log_read(build):
    """The Figure 9a effect on a LAN: lease reads skip the round trip."""
    cluster = build()
    cluster.run_ms(100)
    t0 = cluster.sim.now
    read = cluster.client.get("s1", "k")
    cluster.run_ms(100)
    reply_time = next(t for t, _, r in cluster.client.replies
                      if r.request_id == read.request_id)
    assert reply_time - t0 < ms(4)  # ~1 local RTT, no consensus round


def test_write_waits_for_all_lease_holders(build):
    """The modified Learn / LeaderLearn: a majority of acks is not enough
    while an active holder has not acknowledged — a crashed holder blocks
    writes until its leases expire."""
    cluster = build()
    cluster.run_ms(100)
    cluster["s2"].crash()
    cmd = cluster.client.put("s0", "k", "v")
    cluster.run_ms(150)
    # s2 still holds an unexpired lease -> the write must NOT have committed
    # yet even though {s0, s1} is a majority.
    assert cluster.client.reply_for(cmd) is None
    # After the lease expires, the write commits with the plain majority.
    cluster.run_ms(900)
    assert cluster.client.reply_for(cmd) is not None


def test_leader_unions_in_the_holders_it_granted_itself(build):
    """The implicit ack of the refinement mapping: the leader's own grants
    count as received holders even when no acceptor reports them — the
    case the paper's hand-ported Raft*-PQL got wrong."""
    cluster = build()
    cluster.run_ms(100)
    cluster["s1"]._ack_payload = frozenset  # s1 reports no holders at all
    cluster["s2"].crash()
    cluster.run_ms(10)
    cmd = cluster.client.put("s0", "k", "v")
    cluster.run_ms(150)
    assert "s2" in cluster["s0"].leases.active_holders()
    assert cluster.client.reply_for(cmd) is None
    cluster.run_ms(900)
    assert cluster.client.reply_for(cmd) is not None


def test_read_waits_for_conflicting_write(build):
    """LocalRead's second condition: every entry modifying the key must be
    at or below the commit frontier (Figure 8 line 4)."""
    cluster = build()
    cluster.run_ms(100)
    follower = cluster["s1"]
    # Inject a pending (uncommitted) write for the key into the follower's
    # tracking, as if an append had arrived ahead of the commit.
    follower._last_modified["hot"] = follower.commit_index + 100
    read = cluster.client.get("s1", "hot")
    cluster.run_ms(20)
    assert cluster.client.reply_for(read) is None
    assert [queued for _, queued in follower._pending_reads["hot"]] == [read]
    # Once the commit index catches up, the read completes.
    follower._last_modified["hot"] = follower.commit_index
    cluster.run_ms(100)
    assert cluster.client.reply_for(read) is not None


def _uncached_awaited(replica):
    """`_awaited_holders` as defined, walked per call: own live acked
    grants ∪ every report younger than a lease duration, minus self."""
    now = replica.sim.now
    holders = {holder for holder, expiry in replica.leases.acked.items()
               if expiry >= now}
    horizon = now - replica.config.lease_duration
    for reported_at, reported in replica._reported_holders.values():
        if reported_at >= horizon:
            holders |= reported
    holders.discard(replica.name)
    return holders


def test_awaited_holders_memo_agrees_with_the_uncached_union(build):
    """Across acks, a holder crashing (its report going stale and its
    grants lapsing), and its return."""
    cluster = build(n=5)
    leader = cluster["s0"]

    def run_and_compare(steps):
        seen = set()
        for i in range(steps):
            cluster.client.put("s0", f"k{i % 3}", "v")  # keeps acks flowing
            cluster.run_ms(7)
            assert leader._awaited_holders() == _uncached_awaited(leader), \
                cluster.sim.now
            seen.add(leader._awaited_holders())
        return seen

    run_and_compare(30)
    assert leader._awaited_holders() == {"s1", "s2", "s3", "s4"}
    cluster["s4"].crash()
    seen = run_and_compare(160)  # > 2 lease durations
    assert frozenset({"s1", "s2", "s3"}) in seen
    cluster["s4"].recover()
    run_and_compare(60)
    assert leader._awaited_holders() == {"s1", "s2", "s3", "s4"}


def test_read_without_lease_goes_through_log(build):
    cluster = build()
    cluster.run_ms(100)
    cluster.network.isolate("s2")
    cluster.run_ms(900)  # s2's lease lapses
    assert not cluster["s2"].leases.has_quorum_lease()
    cluster.network.heal()
    # heal restores connectivity; before re-granting completes the next read
    # falls back to the log path
    before = cluster["s2"].local_reads_served
    cluster.client.get("s2", "k")
    cluster.run_ms(5)
    assert cluster["s2"].forwarded_reads >= 1
    assert cluster["s2"].local_reads_served == before


def test_writes_replicate_everywhere(build):
    cluster = build()
    cluster.run_ms(100)
    for i in range(5):
        cluster.client.put("s0", f"k{i}", f"v{i}")
    cluster.run_ms(400)
    snaps = [replica.store.snapshot() for replica in cluster.values()]
    assert snaps[0] == snaps[1] == snaps[2]
    assert len(snaps[0]) == 5
    for replica in cluster.values():
        for i in range(5):
            assert replica.store.read_local(f"k{i}") == f"v{i}"


def test_lease_read_freshness_history(build):
    """End-to-end freshness: a read starting after a write completed sees it."""
    cluster = build()
    checker = HistoryChecker()
    for replica in cluster.values():
        replica.on_apply_hooks.append(checker.record_apply)
    cluster.run_ms(100)

    write = cluster.client.put("s0", "x", "fresh")
    cluster.run_ms(200)
    write_end = next(t for t, _, r in cluster.client.replies
                     if r.request_id == write.request_id)
    read = cluster.client.get("s2", "x")
    cluster.run_ms(100)
    reply = cluster.client.reply_for(read)
    assert reply.value == "fresh"

    checker.record_event(HistoryEvent(
        client="client", seq=write.seq, op=OpType.PUT, key="x", value="fresh",
        start=0, end=write_end, server="s0"))
    checker.record_event(HistoryEvent(
        client="client", seq=read.seq, op=OpType.GET, key="x", value=reply.value,
        start=write_end + 1, end=cluster.sim.now, server="s2", local_read=True))
    assert checker.check_all() == []


def test_recovered_replica_leases_and_reads_again(build):
    """The shared lease lifecycle: after crash + recover a replica grants
    and renews leases again, re-arms its sweeps, and serves local reads.
    (At the parent commit the Paxos copy never restarted any of it.)"""
    cluster = build()
    cluster.client.put("s0", "k", "v")
    cluster.run_ms(100)
    s2 = cluster["s2"]
    s2.crash()
    cluster.run_ms(200)
    s2.recover()
    cluster.run_ms(4 * 100)  # four renew intervals
    now = cluster.sim.now
    assert s2.leases._renew_timer.armed
    assert s2._read_sweep_timer.armed
    assert s2._commit_recheck_timer.armed == (
        s2.commit_recheck_interval is not None)
    for peer in ("s0", "s1"):
        assert cluster[peer].leases.held.get("s2", 0) >= now, \
            f"{peer} holds no unexpired grant from the recovered replica"
    before = s2.local_reads_served
    read = cluster.client.get("s2", "k")
    cluster.run_ms(50)
    reply = cluster.client.reply_for(read)
    assert reply.ok and reply.local_read and reply.value == "v"
    assert s2.local_reads_served == before + 1
