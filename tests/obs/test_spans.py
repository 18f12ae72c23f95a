"""Span reconstruction and tail budgets over synthetic phase records."""

from repro.metrics.stats import percentile
from repro.obs import Span, SpanReconstructor, tail_budget

#: One clean leader-path request: (dt_us, phase, node).
REQUEST = (
    (0, "submit", "c"), (10, "admit", "c"), (12, "send", "c"),
    (40, "server_recv", "r1"), (41, "append", "r1"),
    (90, "commit", "r1"), (91, "reply", "r1"), (120, "complete", "c"),
)


def _log_request(log, trace, t0, phases=REQUEST):
    for dt, phase, node in phases:
        log.append((t0 + dt, trace, phase, node))


def make_log(n=3, spacing=1000):
    log = []
    for i in range(n):
        _log_request(log, f"c:{i}", i * spacing)
    return log


def test_join_by_trace():
    recon = SpanReconstructor(make_log(3))
    spans = recon.spans()
    assert len(spans) == 3
    assert [s.trace for s in spans] == ["c:0", "c:1", "c:2"]
    assert all(len(s.events) == len(REQUEST) for s in spans)
    assert spans[0].phases == [phase for _, phase, _ in REQUEST]


def test_phase_durations_sum_to_latency_exactly():
    for span in SpanReconstructor(make_log(4)).spans():
        assert span.monotonic
        assert span.latency_us == 120
        assert sum(span.phase_durations().values()) == span.latency_us
        assert sum(span.budget().values()) == span.latency_us


def test_budget_buckets():
    span = SpanReconstructor(make_log(1)).spans()[0]
    budget = span.budget()
    # submit 10 + admit 2; send 28 + reply 29; server_recv 1; append 49;
    # commit 1 — from the REQUEST offsets above.
    assert budget == {"queueing": 12, "transport": 57, "handling": 1,
                      "replication": 49, "apply": 1}


def test_complete_only_filtering():
    log = make_log(2)
    # A request still in flight when the run ended: no `complete` record.
    _log_request(log, "c:cut", 9000, REQUEST[:-1])
    recon = SpanReconstructor(log)
    assert len(recon.spans()) == 2
    assert len(recon.spans(complete_only=False)) == 3
    assert [s.trace for s in recon.incomplete()] == ["c:cut"]


def test_a_span_ends_at_its_first_complete():
    """A record of the same trace after `complete` (a server answering a
    retransmit the client already had its reply for) is not part of the
    request's latency: the span stays complete and its phases still sum
    to the latency."""
    log = make_log(1)
    log.append((200, "c:0", "server_recv", "r2"))
    log.append((201, "c:0", "reply", "r2"))
    (span,) = SpanReconstructor(log).spans()
    assert span.is_complete
    assert span.phases == [phase for _, phase, _ in REQUEST]
    assert sum(span.phase_durations().values()) == span.latency_us == 120


def test_records_without_a_submit_are_not_requests_in_flight():
    """Work traced by its own commands (a transaction's phase 2 after the
    answer) or a span whose head the ring evicted is not a request in
    flight."""
    log = make_log(1)
    _log_request(log, "c:cut", 9000, REQUEST[:-1])
    _log_request(log, "__txn__:h:3", 9000, REQUEST[3:6])
    recon = SpanReconstructor(log)
    assert [s.trace for s in recon.incomplete()] == ["c:cut"]
    assert len(recon.spans(complete_only=False)) == 3


def test_retry_accumulates_into_one_span():
    log = []
    _log_request(log, "c:0", 0, (
        (0, "submit", "c"), (5, "admit", "c"), (6, "send", "c"),
        (30, "reject", "c"), (80, "send", "c"), (110, "server_recv", "r2"),
        (111, "append", "r2"), (160, "commit", "r2"), (161, "reply", "r2"),
        (190, "complete", "c"),
    ))
    (span,) = SpanReconstructor(log).spans()
    assert span.attempts == 2
    durations = span.phase_durations()
    assert durations["send"] == 24 + 30  # both attempts accumulate
    assert durations["reject"] == 50  # the backoff interval
    assert span.budget()["retry"] == 50
    assert sum(durations.values()) == span.latency_us == 190


def test_tail_budget_percentile_names_and_exemplars():
    spans = [Span(trace=f"t{i}", events=[(0, "submit", "c"),
                                         (i, "complete", "c")])
             for i in range(1, 1001)]
    report = tail_budget(spans)
    assert list(report) == ["p50", "p99", "p999"]
    latencies = [s.latency_us for s in spans]
    for name, pct in (("p50", 50.0), ("p99", 99.0), ("p999", 99.9)):
        entry = report[name]
        assert entry["latency_us"] == percentile(latencies, pct)
        assert sum(entry["phases_us"].values()) == entry["latency_us"]


def test_tail_budget_empty_and_incomplete_only():
    assert tail_budget([]) == {}
    truncated = [Span(trace="t", events=[(0, "submit", "c"),
                                         (5, "send", "c")])]
    assert tail_budget(truncated) == {}
