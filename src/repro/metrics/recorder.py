"""Per-request records and windowed aggregation.

The paper's methodology: each trial runs for a fixed duration with warm-up
and cool-down trimmed; latencies are reported as 50th/90th/99th percentiles
split by whether the client talked to the leader's region or a follower's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.stats import summarize
from repro.protocols.types import OpType
from repro.sim.units import sec, to_ms, to_sec

#: Width of one `MetricsRecorder.timeline` bucket, in simulated seconds —
#: also the unit a figure's stall time is counted in.
TIMELINE_BUCKET_S = 0.5


@dataclass(frozen=True, slots=True)
class RequestRecord:
    client: str
    site: str
    server: str
    op: OpType
    start: int
    end: int
    ok: bool
    local_read: bool = False

    @property
    def latency_us(self) -> int:
        return self.end - self.start

    @property
    def latency_ms(self) -> float:
        return to_ms(self.latency_us)


class MetricsRecorder:
    """Collects completed requests and answers windowed queries."""

    def __init__(self) -> None:
        self.records: List[RequestRecord] = []
        self.failures = 0
        # Named event counters (redirects, capped redirects, ...): cheap
        # shared tallies for paths that do not produce a RequestRecord.
        self.counters: Dict[str, int] = {}
        # Time-series gauges (repro.obs.GaugeSampler): series name ->
        # [(time_us, value), ...] in sample order.
        self.gauges: Dict[str, List[Tuple[int, float]]] = {}

    def add(self, record: RequestRecord) -> None:
        if record.ok:
            self.records.append(record)
        else:
            self.failures += 1

    def incr(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def gauge(self, name: str, time_us: int, value: float) -> None:
        self.gauges.setdefault(name, []).append((time_us, value))

    def window(self, start_us: int, end_us: int) -> List[RequestRecord]:
        return [r for r in self.records if r.start >= start_us and r.end <= end_us]

    def throughput_ops(self, start_us: int, end_us: int,
                       predicate: Optional[Callable[[RequestRecord], bool]] = None) -> float:
        """Completed ops per second within the steady window."""
        span = to_sec(end_us - start_us)
        if span <= 0:
            return 0.0
        selected = self.window(start_us, end_us)
        if predicate is not None:
            selected = [r for r in selected if predicate(r)]
        return len(selected) / span

    def latency_summary_ms(self, start_us: int, end_us: int,
                           predicate: Optional[Callable[[RequestRecord], bool]] = None,
                           ) -> Dict[str, float]:
        selected = self.window(start_us, end_us)
        if predicate is not None:
            selected = [r for r in selected if predicate(r)]
        return summarize([r.latency_ms for r in selected])

    def completion_throughput(self, start_us: int, end_us: int) -> float:
        """Completions per second whose ACK landed in the window, whatever
        their submission time.  The open-loop achieved-throughput measure:
        past the saturation knee a request's latency can exceed the
        steady window, and requiring start AND end inside (like
        `throughput_ops`) would undercount a server that is in fact
        completing work at capacity."""
        span = to_sec(end_us - start_us)
        if span <= 0:
            return 0.0
        return sum(1 for r in self.records
                   if start_us <= r.end <= end_us) / span

    def completion_latency_summary_ms(self, start_us: int, end_us: int,
                                      ) -> Dict[str, float]:
        """Latency summary over completions whose ACK landed in the
        window, whatever their submission time — pairs with
        `completion_throughput`: requiring submission inside the window
        too would exclude precisely the most-delayed (long-queued)
        requests at saturation and understate the knee."""
        return summarize([r.latency_ms for r in self.records
                          if start_us <= r.end <= end_us])

    def split_by_site(self, start_us: int, end_us: int, leader_site: str,
                      op: Optional[OpType] = None) -> Dict[str, Dict[str, float]]:
        """The paper's Leader/Followers split for latency figures."""

        def match(record: RequestRecord, want_leader: bool) -> bool:
            if op is not None and record.op is not op:
                return False
            return (record.site == leader_site) == want_leader

        return {
            "leader": self.latency_summary_ms(start_us, end_us, lambda r: match(r, True)),
            "followers": self.latency_summary_ms(start_us, end_us, lambda r: match(r, False)),
        }

    def local_read_fraction(self, start_us: int, end_us: int) -> float:
        reads = [r for r in self.window(start_us, end_us) if r.op is OpType.GET]
        if not reads:
            return 0.0
        return sum(1 for r in reads if r.local_read) / len(reads)

    def throughput_by(self, start_us: int, end_us: int,
                      key: Callable[[RequestRecord], str]) -> Dict[str, float]:
        """Per-group throughput (ops/s) within the window, grouped by `key`
        (e.g. the owning shard of each record's server)."""
        span = to_sec(end_us - start_us)
        if span <= 0:
            return {}
        counts: Dict[str, int] = {}
        for record in self.window(start_us, end_us):
            group = key(record)
            counts[group] = counts.get(group, 0) + 1
        return {group: count / span for group, count in counts.items()}

    def timeline(self, duration_s: float) -> List[Tuple[float, float, float]]:
        """The run as `TIMELINE_BUCKET_S` buckets of completions, by ack
        time: (bucket start in s, ops/s, p99 latency in ms — NaN for an
        empty bucket).  The last bucket is cut at `duration_s`."""
        buckets: List[Tuple[float, float, float]] = []
        t = 0.0
        while t < duration_s:
            hi = min(t + TIMELINE_BUCKET_S, duration_s)
            lat = sorted(r.latency_ms for r in self.records
                         if sec(t) <= r.end < sec(hi))
            p99 = lat[int(0.99 * (len(lat) - 1))] if lat else float("nan")
            buckets.append((t, len(lat) / (hi - t), p99))
            t = hi
        return buckets

