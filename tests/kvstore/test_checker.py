"""History checker detects what it should and passes what it should."""

import random
import re
from dataclasses import replace
from itertools import accumulate

import pytest

from repro.kvstore.checker import HistoryChecker, HistoryEvent
from repro.protocols.types import Command, OpType


def put(key, value, client="c", seq=1):
    return Command(op=OpType.PUT, key=key, value=value, client_id=client, seq=seq)


def test_prefix_agreement_clean():
    checker = HistoryChecker()
    for replica in ("a", "b"):
        checker.record_apply(replica, 0, put("k", "v1"))
        checker.record_apply(replica, 1, put("k", "v2", seq=2))
    assert checker.check_prefix_agreement() == []


def test_prefix_agreement_detects_divergence():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1"))
    checker.record_apply("b", 0, put("k", "DIFFERENT"))
    violations = checker.check_prefix_agreement()
    assert violations and "disagree at index 0" in violations[0]


def test_prefix_agreement_ignores_disjoint_indexes():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1"))
    checker.record_apply("b", 1, put("k", "v2", seq=2))
    assert checker.check_prefix_agreement() == []


def test_monotonic_reads_clean():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1", seq=1))
    checker.record_apply("a", 1, put("k", "v2", seq=2))
    checker.record_event(HistoryEvent("c", 1, OpType.GET, "k", "v1", 0, 10, "a"))
    checker.record_event(HistoryEvent("c", 2, OpType.GET, "k", "v2", 20, 30, "a"))
    assert checker.check_all() == []


def test_monotonic_reads_detects_regression():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1", seq=1))
    checker.record_apply("a", 1, put("k", "v2", seq=2))
    checker.record_event(HistoryEvent("c", 1, OpType.GET, "k", "v2", 0, 10, "a"))
    checker.record_event(HistoryEvent("c", 2, OpType.GET, "k", "v1", 20, 30, "a"))
    violations = checker.check_all()
    assert len(violations) == 1
    assert violations[0].startswith("read by c seq 2 (log): key=k has rank 0")


def test_lease_freshness_clean():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1", seq=1))
    checker.record_event(HistoryEvent("w", 1, OpType.PUT, "k", "v1", 0, 10, "a"))
    checker.record_event(HistoryEvent("r", 1, OpType.GET, "k", "v1", 20, 25, "b",
                                      local_read=True))
    assert checker.check_all() == []


def test_lease_freshness_detects_stale_read():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "old", seq=1))
    checker.record_apply("a", 1, put("k", "new", seq=2))
    checker.record_event(HistoryEvent("w", 2, OpType.PUT, "k", "new", 0, 10, "a"))
    checker.record_event(HistoryEvent("r", 1, OpType.GET, "k", "old", 20, 25, "b",
                                      local_read=True))
    violations = checker.check_all()
    assert len(violations) == 1
    assert violations[0].startswith("read by r seq 1 (lease-local): key=k")


def test_lease_freshness_ignores_concurrent_reads():
    """A local read that STARTED before the write completed may see either."""
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "old", seq=1))
    checker.record_apply("a", 1, put("k", "new", seq=2))
    checker.record_event(HistoryEvent("w", 2, OpType.PUT, "k", "new", 0, 30, "a"))
    checker.record_event(HistoryEvent("r", 1, OpType.GET, "k", "old", 20, 25, "b",
                                      local_read=True))
    assert checker.check_all() == []


def lagging_first(checker):
    """s0 is recorded first but applied only v1 (it crashed, or was cut
    off); s1 and s2 applied v1 and then v2."""
    checker.record_apply("s0", 0, put("k", "v1", seq=1))
    for replica in ("s1", "s2"):
        checker.record_apply(replica, 0, put("k", "v1", seq=1))
        checker.record_apply(replica, 1, put("k", "v2", seq=2))


def test_lease_freshness_ranks_by_the_longest_applied_stream():
    """A correct local read of v2, made after both writes completed, is
    fresh even though the first-recorded replica never applied v2: the
    group's one log holds what any replica applied."""
    checker = HistoryChecker()
    lagging_first(checker)
    checker.record_event(HistoryEvent("w", 1, OpType.PUT, "k", "v1", 0, 10, "s1"))
    checker.record_event(HistoryEvent("w", 2, OpType.PUT, "k", "v2", 10, 20, "s1"))
    checker.record_event(HistoryEvent("r", 1, OpType.GET, "k", "v2", 30, 35, "s2",
                                      local_read=True))
    assert checker.check_linearizability() == []
    assert checker.check_all() == []
    assert checker.value_ranks() == {"k": {"v1": 0, "v2": 1}}


def test_monotonic_reads_ranks_by_the_longest_applied_stream():
    """Reading v2 and then v1 in real time goes backwards, even though
    the first-recorded replica never applied v2: the group's one log
    ranks it."""
    checker = HistoryChecker()
    lagging_first(checker)
    checker.record_event(HistoryEvent("c", 1, OpType.GET, "k", "v2", 30, 35, "s1"))
    checker.record_event(HistoryEvent("c", 2, OpType.GET, "k", "v1", 40, 45, "s0"))
    violations = checker.check_linearizability()
    assert len(violations) == 1 and "rank 0 but rank 1" in violations[0]
    assert checker.check_all() == violations


# -- planted violations: each flips exactly one verdict ------------------------


def three_replicas(*values):
    """A checker whose three replicas all applied PUTs of `values` to key
    k, in that log order."""
    checker = HistoryChecker()
    for replica in ("s0", "s1", "s2"):
        for index, value in enumerate(values):
            checker.record_apply(replica, index, put("k", value, seq=index))
    return checker


def event(client, seq, op, value, start, end, local_read=False):
    return HistoryEvent(client, seq, op, "k", value, start, end, "s0",
                        local_read=local_read)


def writes_a_then_b(read_start):
    """A writes a (0-10) then b (12-20); B's log-served read of a starts
    at `read_start`."""
    checker = three_replicas("a", "b")
    checker.record_event(event("A", 1, OpType.PUT, "a", 0, 10))
    checker.record_event(event("A", 2, OpType.PUT, "b", 12, 20))
    checker.record_event(event("B", 1, OpType.GET, "a", read_start, 40))
    return checker


def test_stale_log_served_read_is_a_violation():
    violations = writes_a_then_b(read_start=30).check_all()
    assert len(violations) == 1
    assert violations[0].startswith("read by B seq 1 (log): key=k has rank 0")


def test_read_concurrent_with_the_ack_may_see_the_older_value():
    """The read is invoked at tick 20, the tick b is acked: concurrent."""
    assert writes_a_then_b(read_start=20).check_all() == []


def test_cross_client_regression_is_a_violation():
    checker = three_replicas("a", "b")
    checker.record_event(event("A", 1, OpType.PUT, "a", 0, 10))
    checker.record_event(event("A", 2, OpType.PUT, "b", 12, 20))
    checker.record_event(event("C", 1, OpType.GET, "b", 41, 50))
    checker.record_event(event("D", 1, OpType.GET, "a", 60, 70))
    violations = checker.check_all()
    assert len(violations) == 1 and violations[0].startswith("read by D seq 1")


def test_read_from_the_future_is_a_violation():
    checker = three_replicas("a")
    checker.record_event(event("R", 1, OpType.GET, "a", 0, 5))
    checker.record_event(event("W", 1, OpType.PUT, "a", 10, 20))
    violations = checker.check_all()
    assert len(violations) == 1
    assert "whose write began at 10, after the read ended at 5" in violations[0]


def test_log_order_against_real_time_is_a_violation():
    """x was acked before y was invoked, yet the log installs y first."""
    checker = three_replicas("y", "x")
    checker.record_event(event("W", 1, OpType.PUT, "x", 0, 10))
    checker.record_event(event("V", 1, OpType.PUT, "y", 20, 30))
    violations = checker.check_all()
    assert len(violations) == 1
    assert violations[0].startswith("write by V seq 1 (log): key=k has rank 0")


def test_read_before_an_older_write_is_a_violation():
    """The lease read of b completes before the write of a begins, but
    the log installs a first."""
    checker = three_replicas("a", "b")
    checker.record_event(event("W", 2, OpType.PUT, "b", 5, 50))
    checker.record_event(event("R", 1, OpType.GET, "b", 10, 20, local_read=True))
    checker.record_event(event("W", 1, OpType.PUT, "a", 30, 40))
    violations = checker.check_all()
    assert len(violations) == 1
    assert violations[0].startswith("write by W seq 1 (log): key=k has rank 0")


def test_missing_key_read_after_a_completed_write_is_a_violation():
    checker = three_replicas("a")
    checker.record_event(event("W", 1, OpType.PUT, "a", 0, 10))
    checker.record_event(event("R", 1, OpType.GET, None, 20, 30))
    violations = checker.check_all()
    assert len(violations) == 1
    assert violations[0].startswith("read by R seq 1 (log): key=k has rank -1")


def moved_then_written(*reads):
    """A reshard's target group: its replicas install key k's history
    [a, b] through a `MIGRATE_IN` (written on the donor, moved here), then
    apply a PUT of c.  `reads` are (client, value, start, end) GETs."""
    import json

    checker = HistoryChecker()
    blob = json.dumps({"table": {"k": "b"}, "versions": {"k": 2},
                       "sessions": {}, "write_log": {"k": ["a", "b"]}})
    migrate = Command(op=OpType.MIGRATE_IN, key="reshard:2:0", value=blob,
                      client_id="__reshard__", seq=2, value_size=len(blob))
    for replica in ("s0", "s1", "s2"):
        checker.record_apply(replica, 0, migrate)
        checker.record_apply(replica, 1, put("k", "c", seq=1))
    checker.record_event(event("W", 1, OpType.PUT, "c", 100, 110))
    for seq, (client, value, start, end) in enumerate(reads, 1):
        checker.record_event(event(client, seq, OpType.GET, value, start, end))
    return checker


def test_values_a_reshard_moved_are_ranked_by_the_install_order_it_carried():
    checker = moved_then_written()
    assert checker.value_ranks() == {"k": {"a": 0, "b": 1, "c": 2}}
    violations = moved_then_written(("R", "b", 0, 10),
                                    ("S", "a", 20, 30)).check_all()
    assert len(violations) == 1 and violations[0].startswith(
        "read by S seq 2 (log): key=k has rank 0 but rank 1")
    assert moved_then_written(("R", "a", 0, 10), ("S", "b", 20, 30),
                              ("T", "c", 120, 130)).check_all() == []


# -- the sweep against references ----------------------------------------------


def rank_of(event, ranks):
    """The event's rank in its key's install order, or None if unranked."""
    if event.op is OpType.GET and event.value is None:
        return -1
    return ranks.get(event.key, {}).get(event.value or "")


def pairwise_violations(checker):
    """The reference for the sweep: conditions (A) and (B) tested on every
    pair of a key's ranked events.  One (client, seq) per violation."""
    ranks = checker.value_ranks()
    ranked = [(e, rank_of(e, ranks)) for e in checker.events]
    ranked = [(e, r) for e, r in ranked if r is not None]
    flagged = []
    for e, rank in ranked:
        if any(f.key == e.key and f.end < e.start and other > rank
               for f, other in ranked):
            flagged.append((e.client, str(e.seq)))
        if e.op is OpType.GET and any(
                f.op is OpType.PUT and f.key == e.key and other == rank
                and f.start > e.end for f, other in ranked):
            flagged.append((e.client, str(e.seq)))
    return sorted(flagged)


@pytest.mark.parametrize("seed", range(40))
def test_lease_freshness_sweep_equals_the_quadratic_check(seed):
    """The O(n log n) sweep flags the same events as testing conditions
    (A) and (B) on every pair, on seeded histories with lagging replicas,
    concurrent and unacked writes, and lease and log reads of unknown
    values and of missing keys — up to 70 events, past what the
    brute-force search below can take."""
    rng = random.Random(seed)
    checker = HistoryChecker()
    keys = [f"k{i}" for i in range(rng.randint(1, 4))]
    log = [put(rng.choice(keys), f"v{i}", seq=i) for i in range(rng.randint(0, 30))]
    clean = seed % 2  # some replica applied the whole log, reads are fresh
    lengths = [rng.randint(0, len(log)) for _ in range(3)]
    if clean:
        lengths[rng.randrange(3)] = len(log)
    for replica, length in zip(("s0", "s1", "s2"), lengths):
        for index, command in enumerate(log[:length]):
            checker.record_apply(replica, index, command)
    for command in log:
        if rng.random() < 0.8:  # the rest were never acknowledged
            end = rng.randint(0, 100)
            checker.record_event(HistoryEvent(
                "w", command.seq, OpType.PUT, command.key, command.value,
                end - rng.randint(0, 10), end, "s0"))
    for seq in range(rng.randint(0, 40)):
        key = rng.choice(keys)
        start = rng.randint(0, 110)
        written = [c.value for c in log if c.key == key]
        if written and (clean or rng.random() < 0.3):
            value = written[-1]
        else:
            value = rng.choice(written + [None, "never-written"])
        checker.record_event(HistoryEvent(
            f"r{seq % 3}", seq, OpType.GET, key, value, start, start + 5,
            "s1", local_read=rng.random() < 0.8))
    violations = checker.check_linearizability()
    flagged = sorted(re.match(r"(?:read|write) by (\S+) seq (\d+) ", v).groups()
                     for v in violations)
    assert flagged == pairwise_violations(checker)


def linearizable_by_search(checker):
    """The reference for the conditions: try every order of key k's
    events that respects real-time precedence, with writes in log order
    and each read returning the latest earlier write (None before the
    first).  A write with no event was never acked: it may take effect at
    any time, in log order.  Events of values with no rank are left out,
    as the checker leaves them out."""
    ranks = checker.value_ranks()
    events = [e for e in checker.events if rank_of(e, ranks) is not None]
    rank = [rank_of(e, ranks) for e in events]
    acked = {r for e, r in zip(events, rank) if e.op is OpType.PUT}
    everything = (1 << len(events)) - 1
    failed = set()

    def search(placed, current):
        """Can the unplaced events follow, with `current` the rank the key
        holds (-1: missing)?"""
        if placed == everything:
            return True
        if (placed, current) in failed:
            return False
        for i, e in enumerate(events):
            if placed >> i & 1 or any(
                    not placed >> j & 1 and f.end < e.start
                    for j, f in enumerate(events)):
                continue
            # unacked writes in (current, target] take effect first
            target = rank[i] - 1 if e.op is OpType.PUT else rank[i]
            if target < current or any(current < a <= target for a in acked):
                continue
            if search(placed | 1 << i, rank[i]):
                return True
        failed.add((placed, current))
        return False

    return search(0, -1)


def small_history(rng):
    """At most 7 events on key k over three replicas, some lagging: writes
    take effect at increasing points, each acked one around its point,
    reads mostly return the value current at theirs.  Some reads return
    another value, None or a value never written, and some intervals are
    shifted."""
    checker = HistoryChecker()
    log = [f"v{i}" for i in range(rng.randint(0, 4))]
    lengths = [rng.randint(0, len(log)) for _ in range(3)]
    if rng.random() < 0.7:
        lengths[rng.randrange(3)] = len(log)
    for replica, length in zip(("s0", "s1", "s2"), lengths):
        for index, value in enumerate(log[:length]):
            checker.record_apply(replica, index, put("k", value, seq=index))
    points = list(accumulate(rng.randint(0, 10) for _ in log))
    events = []
    for seq, (value, point) in enumerate(zip(log, points)):
        if rng.random() < 0.75:  # the rest were never acknowledged
            events.append(HistoryEvent(
                "w", seq, OpType.PUT, "k", value, point - rng.randint(0, 4),
                point + rng.randint(0, 4), "s0"))
    for seq in range(7 - len(events) - rng.randint(0, 2)):
        point = rng.randint(-2, (points or [0])[-1] + 4)
        value = None
        for written, at in zip(log, points):
            if at <= point:
                value = written
        if rng.random() < 0.5:
            value = rng.choice(log + [None, "never-written"])
        events.append(HistoryEvent(
            f"r{seq}", seq, OpType.GET, "k", value, point - rng.randint(0, 4),
            point + rng.randint(0, 4), "s1", local_read=rng.random() < 0.5))
    if events and rng.random() < 0.5:
        i = rng.randrange(len(events))
        shift = rng.randint(-10, 10)
        events[i] = replace(events[i], start=events[i].start + shift,
                            end=events[i].end + shift)
    for e in events:
        checker.record_event(e)
    return checker


def test_check_equals_a_brute_force_linearization_search():
    """On 600 seeded histories the check is clean exactly when some
    linearization exists: (A) and (B) are sound and complete."""
    verdicts = []
    for seed in range(600):
        checker = small_history(random.Random(seed))
        clean = checker.check_linearizability() == []
        assert clean == linearizable_by_search(checker), seed
        verdicts.append(clean)
    assert 150 < sum(verdicts) < 450  # both verdicts well represented


def test_check_all_aggregates():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1"))
    checker.record_apply("b", 0, put("k", "OTHER"))
    assert len(checker.check_all()) >= 1


def replayed_differently():
    """Replica a applies X at index 0, crashes, and replays Y there; b
    applies Y."""
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "X", seq=1))
    checker.record_apply("a", 0, put("k", "Y", seq=2))
    checker.record_apply("b", 0, put("k", "Y", seq=2))
    return checker


def test_a_replay_of_another_command_is_one_disagreement():
    violations = replayed_differently().check_prefix_agreement()
    assert len(violations) == 1
    assert "disagree at index 0" in violations[0]


def test_check_all_returns_on_a_replayed_index():
    assert len(replayed_differently().check_all()) == 1


def test_a_mencius_skip_and_a_revocation_noop_agree():
    """s0 skips s2's slot 2 and s1 fills it by revoking it: two routes to
    one no-op, which the checker must not read as a disagreement."""
    from repro.protocols.mencius import RaftStarMenciusReplica
    from repro.protocols.messages import MenciusPromise
    from tests.protocols.conftest import MiniCluster

    cluster = MiniCluster(RaftStarMenciusReplica, n=3, leader=None)
    skipper, revoker = cluster["s0"], cluster["s1"]
    skipper._mark_skipped(2)
    revoker._start_recovery("s2", 2, 3)
    ballot = revoker._recovering["s2"]["ballot"]
    revoker._on_promise("s0", MenciusPromise(
        ballot=ballot, acceptor="s0", owner="s2", accepted={}))
    assert revoker.entries[2].ballot == ballot > 0
    checker = HistoryChecker()
    checker.record_apply("s0", 2, skipper.entries[2].command)
    checker.record_apply("s1", 2, revoker.entries[2].command)
    assert checker.check_prefix_agreement() == []


# -- strict serializability of transactions (repro.shard.txn) -----------------


from repro.kvstore.checker import TxnEvent, check_strict_serializability


def txn(txn_id, start, end, *ops):
    return TxnEvent(txn_id=txn_id, start=start, end=end, ops=tuple(ops))


def test_serializable_clean_history_passes():
    events = [
        txn("t1", 0, 10, ("put", "x", "x1"), ("put", "y", "y1")),
        txn("t2", 20, 30, ("get", "x", "x1"), ("get", "y", "y1")),
        txn("t3", 40, 50, ("put", "x", "x3")),
        txn("t4", 60, 70, ("get", "x", "x3")),
    ]
    orders = {"x": ["x1", "x3"], "y": ["y1"]}
    assert check_strict_serializability(events, orders) == []


def test_concurrent_txns_may_serialize_either_way():
    # t2 and t3 overlap in real time; either order explains the reads.
    events = [
        txn("t1", 0, 10, ("put", "x", "x1")),
        txn("t2", 20, 40, ("put", "x", "x2")),
        txn("t3", 25, 45, ("get", "x", "x1")),  # reads BEFORE t2's write
    ]
    orders = {"x": ["x1", "x2"]}
    assert check_strict_serializability(events, orders) == []


def test_fractured_read_is_a_cycle():
    """t3 saw t1's x but t2's y while t2 also overwrote x — no serial
    order explains it: t3 < t2 via x (rw) and t2 < t3 via y (wr)... with
    t2 writing both keys the read is torn."""
    events = [
        txn("t1", 0, 10, ("put", "x", "x1"), ("put", "y", "y1")),
        txn("t2", 20, 30, ("put", "x", "x2"), ("put", "y", "y2")),
        txn("t3", 40, 50, ("get", "x", "x1"), ("get", "y", "y2")),
    ]
    orders = {"x": ["x1", "x2"], "y": ["y1", "y2"]}
    violations = check_strict_serializability(events, orders)
    assert violations and "cycle" in violations[0]


def test_stale_read_after_real_time_gap_is_a_violation():
    """t2 finished before t3 started, yet t3 read the pre-t2 value:
    serializable (t3 before t2) but NOT strictly serializable."""
    events = [
        txn("t1", 0, 10, ("put", "x", "x1")),
        txn("t2", 20, 30, ("put", "x", "x2")),
        txn("t3", 50, 60, ("get", "x", "x1")),
    ]
    orders = {"x": ["x1", "x2"]}
    violations = check_strict_serializability(events, orders)
    assert violations and "cycle" in violations[0]


def test_double_install_flagged():
    events = [txn("t1", 0, 10, ("put", "x", "x1"))]
    orders = {"x": ["x1", "x1"]}  # an acked write executed twice
    violations = check_strict_serializability(events, orders)
    assert violations and "re-executed" in violations[0]


def test_invented_read_flagged():
    events = [txn("t1", 0, 10, ("get", "x", "ghost"))]
    violations = check_strict_serializability(events, {"x": []})
    assert violations and "no store ever installed" in violations[0]


def test_read_of_missing_key_orders_before_first_writer():
    # t2 read x as missing AFTER t1 (which wrote x) finished: t2 must
    # precede t1 (rw) but real time says t1 precedes t2 — cycle.
    events = [
        txn("t1", 0, 10, ("put", "x", "x1")),
        txn("t2", 20, 30, ("get", "x", None)),
    ]
    orders = {"x": ["x1"]}
    violations = check_strict_serializability(events, orders)
    assert violations and "cycle" in violations[0]
    # ...but a CONCURRENT missing-read is fine (serializes before t1)
    events2 = [
        txn("t1", 0, 10, ("put", "x", "x1")),
        txn("t2", 5, 30, ("get", "x", None)),
    ]
    assert check_strict_serializability(events2, orders) == []


def test_unacknowledged_writers_constrain_nothing():
    """A committed-but-unacked txn's value sits in the install order with
    no event; readers of it and writers around it stay consistent."""
    events = [
        txn("t1", 0, 10, ("put", "x", "x1")),
        txn("t3", 40, 50, ("get", "x", "ghostwrite")),  # value IS installed
    ]
    orders = {"x": ["x1", "ghostwrite"]}  # middle writer never acked
    assert check_strict_serializability(events, orders) == []


def unordered_by_rounds(txns, edges):
    """The round-based elimination `unordered` replaced: each round
    rescans every remaining transaction.  The reference it must equal."""
    import heapq

    indegree = {txn_id: 0 for txn_id in txns}
    for a, outs in edges.items():
        for b in outs:
            indegree[b] += 1
    remaining = set(txns)
    end_heap = [(txns[t].end, t) for t in remaining]
    heapq.heapify(end_heap)

    def min_ends():
        found = []
        while end_heap and len(found) < 2:
            entry = heapq.heappop(end_heap)
            if entry[1] in remaining:
                found.append(entry)
        for entry in found:
            heapq.heappush(end_heap, entry)
        return found

    while remaining:
        smallest = min_ends()

        def rt_blocked(txn_id):
            for end, other in smallest:
                if other != txn_id:
                    return end < txns[txn_id].start
            return False

        ready = [t for t in remaining if indegree[t] == 0 and not rt_blocked(t)]
        if not ready:
            return remaining
        for txn_id in ready:
            remaining.discard(txn_id)
            for successor in edges[txn_id]:
                indegree[successor] -= 1
    return remaining


def random_txn_history(rng, size=30, keys=5):
    """A strictly serializable history — overlapping transactions run
    serially at a random point inside their real-time interval — with a
    cycle planted half the time: two installs of a key swapped, or one
    read sent back to an older value."""
    spans = []
    for i in range(size):
        start = rng.randrange(1000)
        end = start + rng.randint(1, 150)
        spans.append((rng.randint(start, end), f"t{i}", start, end))
    state, orders, events = {}, {}, []
    for _, txn_id, start, end in sorted(spans):
        ops = []
        for key in rng.sample([f"k{k}" for k in range(keys)], rng.randint(1, 3)):
            if rng.random() < 0.5:
                value = state[key] = f"{key}.{txn_id}"
                orders.setdefault(key, []).append(value)
                ops.append(("put", key, value))
            else:
                ops.append(("get", key, state.get(key)))
        events.append(txn(txn_id, start, end, *ops))
    if rng.random() < 0.5:
        order = rng.choice(list(orders.values()))
        if len(order) > 1:
            at = rng.randrange(len(order) - 1)
            order[at], order[at + 1] = order[at + 1], order[at]
    else:
        at = rng.randrange(len(events))
        reads = [(op, key, rng.choice([None] + orders.get(key, []))
                  if op == "get" else value)
                 for op, key, value in events[at].ops]
        events[at] = replace(events[at], ops=tuple(reads))
    return events, orders


def test_one_sweep_elimination_equals_the_rounds(monkeypatch):
    from repro.kvstore import checker as checker_module

    verdicts = {"clean": 0, "cycle": 0}
    for seed in range(300):
        events, orders = random_txn_history(random.Random(seed))
        swept = check_strict_serializability(events, orders)
        with monkeypatch.context() as patched:
            patched.setattr(checker_module, "unordered", unordered_by_rounds)
            rounds = check_strict_serializability(events, orders)
        assert swept == rounds, seed
        if not swept:
            verdicts["clean"] += 1
        elif "cycle" in swept[0]:
            verdicts["cycle"] += 1
    assert min(verdicts.values()) >= 30, verdicts
