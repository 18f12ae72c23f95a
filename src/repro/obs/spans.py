"""Request-lifecycle spans.

A span is the ordered list of phase timestamps one client request (or one
cross-shard transaction) accumulated on its way through the system:

    submit -> admit -> send -> server_recv -> [forward -> leader_recv ->]
    append -> commit -> reply -> complete

plus the detour phases a request may pick up (`reject` + re-`send` on a
leaderless backoff, `redirect` on a shard bounce, `txn_*` on the 2PC path).
A cross-shard transaction's span ends at the answer its client gets at the
last yes vote; the phase 2 that follows is traced by its own commands.
Every phase record names the span it belongs to (`Command.trace_id`, which
the session derives from its request ids and the transaction coordinator
stamps into its child commands), so a retried, redirected, or
leader-crash-survived request still folds into ONE span.

The timing model is interval attribution: the duration charged to a phase
is the gap from its record to the NEXT record of the same span (the last
record gets zero).  That makes per-phase durations sum to the end-to-end
latency *exactly* — the property `tail_budget` reports are built on — at
the cost of linearizing concurrent branches (a 2PC fan-out is attributed
along record order, a critical-path approximation; see DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.stats import percentile

#: Human explanation of the interval *starting* at each phase record.
PHASE_LABELS: Dict[str, str] = {
    "submit": "queueing: submit queue, waiting for a window slot",
    "admit": "admitted to the window, building the request",
    "send": "request on the wire + server CPU queue",
    "reject": "rejection backoff before the retry",
    "redirect": "shard redirect hop",
    "server_recv": "server handling before append/forward",
    "forward": "follower forward buffer + hop to leader",
    "leader_recv": "leader handling the forwarded command",
    "append": "replication: log append to quorum commit",
    "commit": "committed, applying to the state machine",
    "reply": "reply on the wire back to the client",
    "complete": "client matched the reply (span end)",
    "txn_prepare": "2PC prepare round (locks + votes)",
    "txn_abort": "2PC phase 2: dropping staged writes",
}

#: Budget bucket each phase's interval is charged to.
BUDGET_OF: Dict[str, str] = {
    "submit": "queueing",
    "admit": "queueing",
    "send": "transport",
    "reject": "retry",
    "redirect": "redirect",
    "server_recv": "handling",
    "forward": "forwarding",
    "leader_recv": "handling",
    "append": "replication",
    "commit": "apply",
    "reply": "transport",
    "txn_prepare": "replication",
    "txn_abort": "apply",
}


@dataclass
class Span:
    """One request's phase timeline, in record order."""

    trace: str
    #: (time_us, phase, node) tuples in the order they were recorded.
    events: List[Tuple[int, str, str]] = field(default_factory=list)

    @property
    def start(self) -> int:
        return self.events[0][0]

    @property
    def end(self) -> int:
        return self.events[-1][0]

    @property
    def latency_us(self) -> int:
        return self.end - self.start

    @property
    def phases(self) -> List[str]:
        return [phase for _, phase, _ in self.events]

    @property
    def is_complete(self) -> bool:
        return (bool(self.events) and self.events[0][1] == "submit"
                and self.events[-1][1] == "complete")

    @property
    def monotonic(self) -> bool:
        times = [t for t, _, _ in self.events]
        return all(a <= b for a, b in zip(times, times[1:]))

    @property
    def attempts(self) -> int:
        return sum(1 for _, phase, _ in self.events if phase == "send")

    def phase_durations(self) -> Dict[str, int]:
        """Microseconds charged to each phase; repeated phases (retries)
        accumulate.  Sums to `latency_us` exactly by construction."""
        durations: Dict[str, int] = {}
        for (t0, phase, _), (t1, _, _) in zip(self.events, self.events[1:]):
            durations[phase] = durations.get(phase, 0) + (t1 - t0)
        return durations

    def budget(self) -> Dict[str, int]:
        """Phase durations rolled up into budget buckets (queueing /
        transport / replication / apply / retry / ...)."""
        buckets: Dict[str, int] = {}
        for phase, us in self.phase_durations().items():
            bucket = BUDGET_OF.get(phase, "other")
            buckets[bucket] = buckets.get(bucket, 0) + us
        return buckets

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace,
            "start_us": self.start,
            "end_us": self.end,
            "latency_us": self.latency_us,
            "attempts": self.attempts,
            "complete": self.is_complete,
            "events": [{"t": t, "phase": p, "node": n}
                       for t, p, n in self.events],
            "phases_us": self.phase_durations(),
            "budget_us": self.budget(),
        }


class SpanReconstructor:
    """Joins `(time, trace, phase, node)` records into per-request
    `Span`s.  A span ends at its first `complete`: a record of the same
    trace after it (a server answering a retransmit the client already
    had its reply for) is work off the client's path, not part of its
    latency, and is left out."""

    def __init__(self, records: Iterable[Tuple[int, str, str, str]]) -> None:
        self._spans: Dict[str, Span] = {}
        ended = set()
        for time, trace, phase, node in records:
            if trace in ended:
                continue
            span = self._spans.get(trace)
            if span is None:
                span = self._spans[trace] = Span(trace)
            span.events.append((time, phase, node))
            if phase == "complete":
                ended.add(trace)

    def span(self, trace: str) -> Optional[Span]:
        return self._spans.get(trace)

    def spans(self, complete_only: bool = True) -> List[Span]:
        """All reconstructed spans, in span-start order.  With
        `complete_only` (default) a span must run submit -> complete;
        truncated spans (run ended mid-flight, ring buffer evicted the
        head) are left out so latency statistics are not skewed."""
        spans = [s for s in self._spans.values()
                 if s.events and (not complete_only or s.is_complete)]
        spans.sort(key=lambda s: (s.start, s.trace))
        return spans

    def incomplete(self) -> List[Span]:
        """Requests still in flight: spans a client submitted that did not
        complete.  Records with no submit in front of them — work traced
        by its own commands, like a transaction's phase 2 after its
        answer, or a span whose head the ring evicted — are not."""
        return [s for s in self._spans.values()
                if s.events and s.events[0][1] == "submit"
                and not s.is_complete]

    def __len__(self) -> int:
        return len(self._spans)


def _pct_name(pct: float) -> str:
    text = f"{pct:g}".replace(".", "")
    return f"p{text}"


def tail_budget(spans: Sequence[Span],
                pcts: Sequence[float] = (50.0, 99.0, 99.9)) -> Dict[str, Dict[str, Any]]:
    """Attribute tail latency to phases: for each percentile, pick THE
    request at that rank of the end-to-end latency distribution and report
    its per-phase breakdown.  Reporting an exemplar request (not a
    per-phase percentile, which mixes different requests) keeps the
    invariant that the reported phases sum to the reported latency.
    """
    complete = [s for s in spans if s.is_complete]
    if not complete:
        return {}
    by_latency = sorted(complete, key=lambda s: (s.latency_us, s.trace))
    latencies = [s.latency_us for s in by_latency]
    report: Dict[str, Dict[str, Any]] = {}
    for pct in pcts:
        target = percentile(latencies, pct)
        exemplar = by_latency[latencies.index(target)]
        report[_pct_name(pct)] = {
            "pct": pct,
            "trace": exemplar.trace,
            "latency_us": exemplar.latency_us,
            "attempts": exemplar.attempts,
            "phases_us": exemplar.phase_durations(),
            "budget_us": exemplar.budget(),
        }
    return report
