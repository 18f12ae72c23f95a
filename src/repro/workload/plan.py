"""`ClientPlan`: the one way client fleets are spawned.

A `ClientPlan` owns the spawn loop every harness shares (naming, rng-stream
derivation, per-site iteration) plus the fleet-wide session knobs:

* `per_region` clients per site, named ``c_<site>_<i>`` with rng stream
  ``client:<name>`` (unchanged, so seeds reproduce);
* pipeline `depth` and `RetryPolicy` for every session in the fleet;
* `offered_load` — when set, the fleet is **open-loop**: each client
  submits on a Poisson clock at ``offered_load / fleet_size`` ops/s
  instead of on completion.

Every client runs on a private sim `Host` with zero CPU cost — the
servers remain the measured resource.  Each harness hands `spawn` a
factory for its one client class, ``make(name, site, rng, **knobs)``, and
the plan does the rest: the knobs are the session knobs above plus the
client's `rate_per_sec` (None = closed loop), passed straight on to the
`ClosedLoopClient` constructor.

`FleetSpec` is the trial-level face of the same knobs: the fields every
experiment spec shares (protocol, fleet, steady window, observability),
declared once for the single-group and the sharded harness to extend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.topology import Topology
from repro.sim.units import sec
from repro.workload.session import RetryPolicy
from repro.workload.ycsb import WorkloadConfig


@dataclass(frozen=True)
class ClientPlan:
    """Fleet-wide client parameters, shared by every harness."""

    per_region: int = 10
    depth: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # Aggregate open-loop arrival rate (ops/s) across the whole fleet;
    # None = closed loop.
    offered_load: Optional[float] = None

    def session_kwargs(self) -> Dict:
        """The per-session constructor knobs this plan fixes fleet-wide."""
        return {"depth": self.depth, "retry": self.retry}

    def fleet_size(self, sites) -> int:
        return self.per_region * len(sites)

    def rate_per_client(self, sites) -> Optional[float]:
        if self.offered_load is None:
            return None
        return self.offered_load / max(1, self.fleet_size(sites))

    def spawn(self, sites, rng_root, make: Callable[..., object]) -> List:
        """Build the fleet: `make(name, site, rng, **knobs)` per client,
        the knobs being `session_kwargs()` and `rate_per_sec` (None =
        closed loop, else the client's Poisson arrival rate in ops/s)."""
        knobs = dict(self.session_kwargs(),
                     rate_per_sec=self.rate_per_client(sites))
        clients: List = []
        for site in sites:
            for i in range(self.per_region):
                name = f"c_{site}_{i}"  # also the client's RNG stream key
                clients.append(make(
                    name, site, rng_root.stream(f"client:{name}"), **knobs))
        return clients


@dataclass
class FleetSpec:
    """What every trial specifies, whichever harness builds it: the
    protocol, the client fleet, the run length with its warm-up/cool-down
    trim (§5's methodology), and the observability switch."""

    protocol: str = "raft"
    clients_per_region: int = 10
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    duration_s: float = 8.0
    warmup_s: float = 2.0
    cooldown_s: float = 1.0
    seed: int = 1
    topology: Optional[Topology] = None
    check_history: bool = False
    # -- client fleet (see `ClientPlan`) ------------------------------------
    # Session pipeline window per client (1 = the legacy closed loop).
    pipeline_depth: int = 1
    # Aggregate open-loop arrival rate in ops/s (None = closed loop).
    offered_load: Optional[float] = None
    # Per-spec retry/backoff schedule for every client session.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # Observability (repro.obs): collect request-lifecycle spans, queue
    # gauges, and a sim profile for this run.  Off by default — when off,
    # the only cost is one branch per instrumented point.
    obs: bool = False

    def with_(self, **changes):
        return replace(self, **changes)

    def client_plan(self) -> ClientPlan:
        return ClientPlan(
            per_region=self.clients_per_region,
            depth=self.pipeline_depth,
            retry=self.retry,
            offered_load=self.offered_load,
        )

    def window(self) -> Tuple[int, int]:
        """The steady-state window in sim microseconds: the run with its
        warm-up and cool-down trimmed."""
        return sec(self.warmup_s), sec(self.duration_s - self.cooldown_s)
