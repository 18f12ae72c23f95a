"""Trace log: a ring of records."""

from repro.sim.trace import TraceLog, TraceRecord


def test_capacity_drops_overflow():
    log = TraceLog(capacity=2)
    for i in range(5):
        log.record(i, "n", "k")
    assert len(log) == 2
    assert log.dropped == 3


def test_ring_mode_keeps_the_newest():
    """A full log evicts the OLDEST record (a flight-recorder: the span
    collector wants the end of the run, not the start)."""
    log = TraceLog(capacity=2)
    for i in range(5):
        log.record(i, "n", "k")
    assert [r.time for r in log] == [3, 4]
    assert log.dropped == 3


def test_str_rendering():
    rec = TraceRecord(5, "node", "send", {"dst": "x"})
    assert "node" in str(rec) and "dst=x" in str(rec)


def test_iteration():
    log = TraceLog()
    log.record(1, "a", "x")
    log.record(2, "b", "y")
    assert [r.node for r in log] == ["a", "b"]
    assert log.dropped == 0
