"""Request record aggregation."""

from repro.metrics.recorder import MetricsRecorder, RequestRecord
from repro.protocols.types import OpType
from repro.sim.units import ms, sec


def rec(start_ms, end_ms, site="oregon", op=OpType.PUT, ok=True, local=False):
    return RequestRecord(client="c", site=site, server=f"r_{site}", op=op,
                         start=ms(start_ms), end=ms(end_ms), ok=ok,
                         local_read=local)


def test_failures_counted_not_recorded():
    metrics = MetricsRecorder()
    metrics.add(rec(0, 10, ok=False))
    assert metrics.failures == 1 and metrics.records == []


def test_window_filters_by_start_and_end():
    metrics = MetricsRecorder()
    metrics.add(rec(0, 10))      # starts before window
    metrics.add(rec(100, 150))   # inside
    metrics.add(rec(900, 1100))  # ends after window
    inside = metrics.window(ms(50), ms(1000))
    assert len(inside) == 1


def test_throughput():
    metrics = MetricsRecorder()
    for i in range(100):
        metrics.add(rec(100 + i, 101 + i))
    assert metrics.throughput_ops(ms(100), ms(1100)) == 100.0


def test_latency_summary():
    metrics = MetricsRecorder()
    metrics.add(rec(0, 50))
    metrics.add(rec(0, 100))
    summary = metrics.latency_summary_ms(0, sec(1))
    assert summary["count"] == 2
    assert summary["max"] == 100.0


def test_split_by_site():
    metrics = MetricsRecorder()
    metrics.add(rec(0, 50, site="oregon"))
    metrics.add(rec(0, 150, site="seoul"))
    split = metrics.split_by_site(0, sec(1), leader_site="oregon", op=OpType.PUT)
    assert split["leader"]["count"] == 1
    assert split["followers"]["count"] == 1
    assert split["followers"]["max"] == 150.0


def test_split_filters_by_op():
    metrics = MetricsRecorder()
    metrics.add(rec(0, 50, op=OpType.GET))
    split = metrics.split_by_site(0, sec(1), leader_site="oregon", op=OpType.PUT)
    assert split["leader"]["count"] == 0


def test_local_read_fraction():
    metrics = MetricsRecorder()
    metrics.add(rec(0, 1, op=OpType.GET, local=True))
    metrics.add(rec(0, 1, op=OpType.GET, local=False))
    metrics.add(rec(0, 1, op=OpType.PUT))
    assert metrics.local_read_fraction(0, sec(1)) == 0.5


def test_local_read_fraction_no_reads():
    metrics = MetricsRecorder()
    assert metrics.local_read_fraction(0, sec(1)) == 0.0


def test_throughput_by_groups_records():
    metrics = MetricsRecorder()
    metrics.add(rec(100, 200, site="oregon"))
    metrics.add(rec(100, 300, site="oregon"))
    metrics.add(rec(100, 400, site="seoul"))
    by_server = metrics.throughput_by(0, sec(1), key=lambda r: r.server)
    assert by_server == {"r_oregon": 2.0, "r_seoul": 1.0}
    assert metrics.throughput_by(0, 0, key=lambda r: r.server) == {}


# -- named counters (redirects, txn events, ...) ------------------------------


def test_incr_creates_and_accumulates():
    metrics = MetricsRecorder()
    assert metrics.counters == {}
    metrics.incr("redirects")
    metrics.incr("redirects")
    metrics.incr("txn_waits", by=3)
    assert metrics.counters == {"redirects": 2, "txn_waits": 3}


def test_incr_negative_and_zero_steps():
    metrics = MetricsRecorder()
    metrics.incr("drift", by=0)
    metrics.incr("drift", by=-2)
    assert metrics.counters == {"drift": -2}


def test_throughput_by_with_counters_untouched():
    """throughput_by ignores counters entirely (they are not records)."""
    metrics = MetricsRecorder()
    metrics.incr("redirects", by=9)
    metrics.add(rec(100, 200))
    assert metrics.throughput_by(0, sec(1), key=lambda r: r.op.value) == \
        {"put": 1.0}
    assert metrics.counters == {"redirects": 9}
