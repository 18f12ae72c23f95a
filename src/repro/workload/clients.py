"""Closed-loop clients: a generation policy over `Session`.

Each client targets the replica in its own region (the paper's deployment:
client and server instances per region) and keeps its pipeline window full
— as soon as fewer than `depth` requests are outstanding it issues the
next one.  With the default `depth=1` this is exactly the paper's
closed-loop client: one outstanding request, the next issued on
completion.  Failed requests (no leader yet, dropped replies) are retried
with the same sequence number under the session's `RetryPolicy`; the
store's windowed at-most-once dedup makes retries safe at any depth.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.recorder import MetricsRecorder
from repro.protocols.types import Command, OpType
from repro.sim.units import ms
from repro.workload.plan import ClientPlan
from repro.workload.session import (  # re-exported: the historical home
    RETRY_TIMEOUT,
    RetryPolicy,
    Session,
)
from repro.workload.ycsb import WorkloadConfig

__all__ = ["ClosedLoopClient", "spawn_clients", "RetryPolicy",
           "RETRY_TIMEOUT"]


class ClosedLoopClient(Session):
    """A session driven closed-loop: the window is kept full of up to
    `depth` workload-generated requests (depth 1 = the paper's client)."""

    def __init__(self, name, sim, network, site, server: str,
                 workload: WorkloadConfig, sites, rng,
                 metrics: MetricsRecorder, stop_at: Optional[int] = None,
                 **session_kwargs) -> None:
        super().__init__(name, sim, network, site, server, workload, sites,
                         rng, metrics, stop_at=stop_at, **session_kwargs)
        # Staggered start so clients don't phase-lock.
        self.after(self.rng.randint(0, ms(10)), self._refill)

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
        while (not self._generation_stopped()
               and self.outstanding < self.depth):
            before = self.outstanding
            self._issue_one()
            if self.outstanding <= before:  # driver declined to issue
                break


def spawn_clients(sim, network, sites, server_of_site, per_region: int,
                  workload: WorkloadConfig, rng_root, metrics: MetricsRecorder,
                  stop_at: Optional[int] = None,
                  plan: Optional[ClientPlan] = None) -> List[ClosedLoopClient]:
    """Create `plan.per_region` clients in every site, each bound to its
    local server (`server_of_site[site]`).  The plan decides depth, retry
    policy, consistency and open/closed loop; the default plan reproduces
    the legacy closed-loop fleet."""
    if plan is None:
        plan = ClientPlan(per_region=per_region)

    def make(name, site, rng, rate):
        if rate is not None:
            from repro.workload.openloop import OpenLoopClient  # lazy: cycle

            return OpenLoopClient(
                name, sim, network, site, server_of_site[site], workload,
                sites, rng, metrics, rate_per_sec=rate, stop_at=stop_at,
                **plan.session_kwargs())
        return ClosedLoopClient(
            name, sim, network, site, server_of_site[site], workload,
            sites, rng, metrics, stop_at=stop_at,
            **plan.session_kwargs())

    return plan.spawn(sim, sites, rng_root, make)
