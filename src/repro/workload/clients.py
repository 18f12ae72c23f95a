"""Workload-driven clients: a generation policy over `Session`.

Each client targets the replica in its own region (the paper's deployment:
client and server instances per region) and issues workload-generated
requests on one of two clocks:

* **closed loop** (the default) — the pipeline window is kept full: as
  soon as fewer than `depth` requests are outstanding the next one is
  issued.  With `depth=1` this is exactly the paper's client: one
  outstanding request, the next issued on completion.  Offered load is
  then a function of the client count and the system's own latency, and
  a saturated server silently throttles its own clients.
* **open loop** (`rate_per_sec` set) — requests arrive on an exponential
  (Poisson-process) clock at `rate_per_sec` regardless of completions:
  requests beyond the window queue in the session, latency is measured
  from *submission* (queueing delay included), and pushing the offered
  load past the service capacity shows the classic latency knee instead
  of a flat closed-loop point.

Either way generation stops at `stop_at`, and whatever is still queued
keeps draining so the final accounting balances.  Failed requests (no
leader yet, dropped replies) are retried with the same sequence number
under the session's `RetryPolicy`; the store's windowed at-most-once dedup
makes retries safe at any depth.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.recorder import MetricsRecorder
from repro.sim.units import ms
from repro.workload.session import (  # re-exported: the historical home
    RetryPolicy,
    Session,
)
from repro.workload.ycsb import WorkloadConfig

__all__ = ["ClosedLoopClient", "RetryPolicy"]


class ClosedLoopClient(Session):
    """A session driven by the workload: the window is kept full of up to
    `depth` requests (depth 1 = the paper's client), or — with
    `rate_per_sec` — fed by a Poisson arrival clock at that rate.  The
    clock decides *when* an operation is issued; `_pick_op` decides
    *what*, in both modes."""

    def __init__(self, name, sim, network, site, server: str,
                 workload: WorkloadConfig, sites, rng,
                 metrics: MetricsRecorder, stop_at: Optional[int] = None,
                 rate_per_sec: Optional[float] = None,
                 **session_kwargs) -> None:
        if rate_per_sec is not None and rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        super().__init__(name, sim, network, site, server, workload, sites,
                         rng, metrics, stop_at=stop_at, **session_kwargs)
        self.rate_per_sec = rate_per_sec
        self.arrivals = 0
        # Staggered start so clients don't phase-lock.  Armed in open loop
        # too, where the refill it runs is a no-op: its draw is part of
        # the client's RNG stream, so both modes consume it in one order.
        self.after(self.rng.randint(0, ms(10)), self._refill)
        if rate_per_sec is not None:
            self._arrival_timer = self.timer("arrival")
            self._schedule_arrival()

    # -- request generation --------------------------------------------------

    def _pick_op(self):
        """One workload-distributed operation: ("get"|"put", key, value).

        Write values must be UNIQUE (the history checkers anchor on them)
        and are derived from the submission counter, not the seq — an
        open-loop op can sit queued while the seq counter stands still,
        and seq-derived values would collide across the queue."""
        is_read = self.rng.random() < self.workload.read_fraction
        if self.rng.random() < self.workload.conflict_rate:
            key = self.workload.hot_key
        else:
            partition = self.workload.partition_for(self.site, self.sites)
            key = WorkloadConfig.key_name(self.rng.choice(partition))
        if is_read:
            return ("get", key, None)
        return ("put", key, f"{self.name}:{self.submitted + 1}")

    def _issue_one(self) -> None:
        op, key, value = self._pick_op()
        self.submit(op, key, value)

    def _refill(self) -> None:
        if self.rate_per_sec is not None:
            return  # open loop: the arrival clock issues work, not acks
        while (not self._generation_stopped()
               and self.outstanding < self.depth):
            before = self.outstanding
            self._issue_one()
            if self.outstanding <= before:  # driver declined to issue
                break

    # -- the open-loop arrival clock -----------------------------------------

    def _schedule_arrival(self) -> None:
        if self._generation_stopped():
            return
        delay = max(1, int(self.rng.expovariate(self.rate_per_sec) * 1e6))
        self._arrival_timer.arm(delay, self._arrive)

    def _arrive(self) -> None:
        if not self._generation_stopped():
            self.arrivals += 1
            self._issue_one()
        self._schedule_arrival()
