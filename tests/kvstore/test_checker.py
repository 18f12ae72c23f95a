"""History checker detects what it should and passes what it should."""

import random
import re

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
    assert checker.check_monotonic_reads() == []


def test_monotonic_reads_detects_regression():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1", seq=1))
    checker.record_apply("a", 1, put("k", "v2", seq=2))
    checker.record_event(HistoryEvent("c", 1, OpType.GET, "k", "v2", 0, 10, "a"))
    checker.record_event(HistoryEvent("c", 2, OpType.GET, "k", "v1", 20, 30, "a"))
    violations = checker.check_monotonic_reads()
    assert violations and "going backwards" in violations[0]


def test_lease_freshness_clean():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1", seq=1))
    checker.record_event(HistoryEvent("w", 1, OpType.PUT, "k", "v1", 0, 10, "a"))
    checker.record_event(HistoryEvent("r", 1, OpType.GET, "k", "v1", 20, 25, "b",
                                      local_read=True))
    assert checker.check_lease_read_freshness() == []


def test_lease_freshness_detects_stale_read():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "old", seq=1))
    checker.record_apply("a", 1, put("k", "new", seq=2))
    checker.record_event(HistoryEvent("w", 2, OpType.PUT, "k", "new", 0, 10, "a"))
    checker.record_event(HistoryEvent("r", 1, OpType.GET, "k", "old", 20, 25, "b",
                                      local_read=True))
    violations = checker.check_lease_read_freshness()
    assert violations and "stale lease read" in violations[0]


def test_lease_freshness_ignores_concurrent_reads():
    """A local read that STARTED before the write completed may see either."""
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "old", seq=1))
    checker.record_apply("a", 1, put("k", "new", seq=2))
    checker.record_event(HistoryEvent("w", 2, OpType.PUT, "k", "new", 0, 30, "a"))
    checker.record_event(HistoryEvent("r", 1, OpType.GET, "k", "old", 20, 25, "b",
                                      local_read=True))
    assert checker.check_lease_read_freshness() == []


def lagging_first(checker):
    """s0 is recorded first but applied only v1 (it crashed, or was cut
    off); s1 and s2 applied v1 and then v2."""
    checker.record_apply("s0", 0, put("k", "v1", seq=1))
    for replica in ("s1", "s2"):
        checker.record_apply(replica, 0, put("k", "v1", seq=1))
        checker.record_apply(replica, 1, put("k", "v2", seq=2))


def test_lease_freshness_ranks_by_the_longest_applied_stream():
    """A correct local read of v2, made after both writes completed, is
    fresh even though the first-recorded replica never applied v2."""
    checker = HistoryChecker()
    lagging_first(checker)
    checker.record_event(HistoryEvent("w", 1, OpType.PUT, "k", "v1", 0, 10, "s1"))
    checker.record_event(HistoryEvent("w", 2, OpType.PUT, "k", "v2", 10, 20, "s1"))
    checker.record_event(HistoryEvent("r", 1, OpType.GET, "k", "v2", 30, 35, "s2",
                                      local_read=True))
    assert checker.check_lease_read_freshness() == []
    assert checker.check_all() == []
    assert checker.value_ranks() == {"k": {"v1": 0, "v2": 1}}


def test_monotonic_reads_ranks_by_the_longest_applied_stream():
    """Reading v2 and then v1 in real time goes backwards, even though
    the first-recorded replica never applied v2."""
    checker = HistoryChecker()
    lagging_first(checker)
    checker.record_event(HistoryEvent("c", 1, OpType.GET, "k", "v2", 30, 35, "s1"))
    checker.record_event(HistoryEvent("c", 2, OpType.GET, "k", "v1", 40, 45, "s0"))
    violations = checker.check_monotonic_reads()
    assert len(violations) == 1 and "rank 0 after 1" in violations[0]
    assert checker.check_all() == violations


def quadratic_stale_reads(checker):
    """The reference: every local read tested against every completed
    write of its key, R x W.  The (client, seq) of each stale read."""
    ranks = checker.value_ranks()
    stale = set()
    for read in checker.events:
        if read.op is not OpType.GET or not read.local_read:
            continue
        order = ranks.get(read.key, {})
        read_rank = order.get(read.value or "", -1)
        for write in checker.events:
            if (write.op is OpType.PUT and write.key == read.key
                    and write.end <= read.start):
                write_rank = order.get(write.value or "")
                if write_rank is not None and read_rank < write_rank:
                    stale.add((read.client, read.seq))
    return stale


@pytest.mark.parametrize("seed", range(40))
def test_lease_freshness_sweep_equals_the_quadratic_check(seed):
    """Same stale reads as testing every read against every write, one
    violation each, on seeded histories with lagging replicas, concurrent
    and unacked writes, reads of unknown values and of missing keys."""
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
    violations = checker.check_lease_read_freshness()
    expected = quadratic_stale_reads(checker)
    assert len(violations) == len(expected)
    flagged = {re.match(r"stale lease read by (\S+) seq (\d+):", v).groups()
               for v in violations}
    assert flagged == {(client, str(seq)) for client, seq in expected}


def test_check_all_aggregates():
    checker = HistoryChecker()
    checker.record_apply("a", 0, put("k", "v1"))
    checker.record_apply("b", 0, put("k", "OTHER"))
    assert len(checker.check_all()) >= 1


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
