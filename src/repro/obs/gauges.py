"""Time-series gauges: cadence-driven sampling on the sim event loop.

A `GaugeSampler` owns a list of named zero-argument probes.  Every
`DEFAULT_INTERVAL_US` of simulated time it reads each probe and
appends `(now, value)` to the `MetricsRecorder`'s gauge series — the same
recorder the request records and counters live in, so one object carries
the whole run's telemetry.  A sharded cluster has one recorder too: its
groups' series sit side by side in it, told apart by a name prefix.

The standard cluster gauges (`install_standard_gauges`) are the queues the
latency budget drains through: host CPU backlog, NIC egress backlog, mux
buffer occupancy, session window/submit-queue occupancy, KVStore lock-table
size, and per-follower commit-index lag.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.sim.units import ms

#: Sampling cadence (simulated time between samples).
DEFAULT_INTERVAL_US = ms(50)


class GaugeSampler:
    """Samples named probes on a fixed simulated-time cadence."""

    def __init__(self, sim, metrics) -> None:
        self.sim = sim
        self.metrics = metrics
        self.sources: List[Tuple[str, Callable[[], float]]] = []
        self._stop_at: Optional[int] = None
        self._started = False

    def add(self, name: str, probe: Callable[[], float]) -> None:
        self.sources.append((name, probe))

    def start(self, stop_at: Optional[int] = None) -> None:
        """Begin sampling; `stop_at` bounds the self-rescheduling tick so
        a bounded `sim.run(until=...)` horizon is not kept alive forever
        (None = sample as long as the sim keeps being run)."""
        if self._started:
            return
        self._started = True
        self._stop_at = stop_at
        self.sim.schedule(DEFAULT_INTERVAL_US, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        for name, probe in self.sources:
            self.metrics.gauge(name, now, float(probe()))
        if self._stop_at is None or now + DEFAULT_INTERVAL_US <= self._stop_at:
            self.sim.schedule(DEFAULT_INTERVAL_US, self._tick)


def install_standard_gauges(sampler: GaugeSampler, *, replicas=(),
                            clients=(), muxes=(), network=None,
                            group: str = "") -> None:
    """Wire the canonical queue-depth probes for one replica group and its
    client fleet.  `group` prefixes the series names so sharded deployments
    can install one set per group without collisions."""
    prefix = f"{group}." if group else ""
    replicas = list(replicas)
    clients = list(clients)

    seen_hosts = set()
    for replica in replicas:
        host = replica.host
        if id(host) in seen_hosts:
            continue
        seen_hosts.add(id(host))
        sampler.add(f"{prefix}cpu_backlog_us.{host.name}", host.cpu_backlog_us)
    if network is not None:
        for replica in replicas:
            sampler.add(f"{prefix}nic_backlog_us.{replica.host.name}",
                        lambda name=replica.host.name: network.egress_backlog_us(name))
    for mux in muxes:
        sampler.add(f"{prefix}mux_buffered.{mux.host.name}",
                    lambda m=mux: sum(len(b) for b in m._buffers.values()))
    if clients:
        sampler.add(f"{prefix}session_in_flight",
                    lambda cs=clients: sum(c.in_flight_count for c in cs))
        sampler.add(f"{prefix}session_submit_queue",
                    lambda cs=clients: sum(c.queued_count for c in cs))
    for replica in replicas:
        sampler.add(f"{prefix}lock_table.{replica.name}",
                    lambda r=replica: r.store.lock_count)

    # Per-follower commit-index lag: how far each replica's commit frontier
    # trails the group's current maximum (leader-agnostic, so it stays
    # meaningful across elections).
    with_commit = [r for r in replicas if hasattr(r, "commit_index")]
    for replica in with_commit:
        def lag(r=replica, group=with_commit):
            frontier = max(x.commit_index for x in group)
            return max(0, frontier - r.commit_index)
        sampler.add(f"{prefix}commit_lag.{replica.name}", lag)
