"""`repro.obs`: request-lifecycle spans, time-series gauges, sim profiling.

Three legs, one façade:

* **Spans** — every client request carries a trace id; instrumented seams
  (session submit/admit/send, replica receive/append/commit/reply, shard
  redirects, 2PC) append `(time, trace, phase, node)` tuples to one
  ring, `Observability.span_log`, and `SpanReconstructor`/`tail_budget`
  turn them into per-request latency budgets (`repro.obs.spans`).
* **Gauges** — a `GaugeSampler` on the sim event loop samples queue depths
  (CPU/NIC/mux/session/locks/commit-lag) into the `MetricsRecorder`
  (`repro.obs.gauges`).
* **Profiler** — an opt-in `SimProfiler` attributing the host's wall-clock
  to event kinds (`repro.obs.profiler`).

Everything is OFF by default: nodes carry `obs = None` and pay one branch
per instrumented point; the simulator pays one branch per event.  The
bench harness (`ExperimentSpec(obs=True)`, `repro.bench tail`, `--obs`)
builds an `Observability`, installs it on the fleet, and renders/exports
the results (`--metrics-out` JSONL via `repro.obs.sink`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.obs.gauges import (DEFAULT_INTERVAL_US, GaugeSampler,
                              install_standard_gauges)
from repro.obs.profiler import SimProfiler
from repro.obs.sink import dump_jsonl
from repro.obs.spans import (BUDGET_OF, PHASE_LABELS, Span,
                             SpanReconstructor, tail_budget)

__all__ = [
    "BUDGET_OF", "DEFAULT_INTERVAL_US", "GaugeSampler",
    "Observability", "PHASE_LABELS", "SimProfiler", "Span",
    "SpanReconstructor", "dump_jsonl", "install_standard_gauges",
    "tail_budget",
]


#: Ring-buffer capacity of the span log, in phase records (a request
#: produces ~10; the ring keeps the newest — the interesting — end).
SPAN_CAPACITY = 2_000_000


class Observability:
    """One run's telemetry: span log + gauge sampler (one sample per
    `DEFAULT_INTERVAL_US` of simulated time) + wall-clock profiler."""

    def __init__(self, sim, metrics) -> None:
        self.sim = sim
        self.metrics = metrics
        # The span ring: `(time, trace, phase, node)` tuples.  A full ring
        # evicts the oldest (the end of a run is the interesting part) and
        # `dropped` counts the evictions, so a truncated log is never
        # mistaken for a complete one.
        self.span_log = deque(maxlen=SPAN_CAPACITY)
        self.dropped = 0
        self.sampler = GaugeSampler(sim, metrics)
        self.profiler = SimProfiler().attach(sim)

    # -- recording (the hot path; nodes call this via `Node.obs_phase`) ------

    def phase(self, time: int, trace: str, phase: str, node: str) -> None:
        log = self.span_log
        if len(log) == log.maxlen:
            self.dropped += 1  # the append below evicts the oldest
        log.append((time, trace, phase, node))

    # -- wiring --------------------------------------------------------------

    def install(self, nodes) -> None:
        """Point a fleet's `Node.obs` at this collector."""
        for node in nodes:
            node.obs = self

    # -- analysis ------------------------------------------------------------

    def reconstruct(self) -> SpanReconstructor:
        return SpanReconstructor(self.span_log)

    def tail_budget(self, pcts=(50.0, 99.0, 99.9)):
        return tail_budget(self.reconstruct().spans(), pcts)

    def dump(self, path: str, meta: Optional[dict] = None) -> int:
        """Export the run's telemetry as JSONL; returns lines written."""
        return dump_jsonl(
            path,
            meta=meta,
            records=self.metrics.records,
            spans=self.reconstruct().spans(complete_only=False),
            gauges=self.metrics.gauges,
            counters=self.metrics.counters,
            profile=self.profiler.report(),
        )
