"""Experiment harness.

`run_experiment(spec)` builds a simulated deployment (replica per region,
closed-loop clients per region), runs it for the configured duration, and
returns throughput/latency aggregates over the steady-state window — the
methodology of §5 ("each trial is run for 50 seconds with 10 seconds for
both warm-up and cool-down"), scaled down by default so a full figure sweeps
in seconds of wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kvstore.checker import HistoryChecker, record_client_events
from repro.metrics.recorder import MetricsRecorder
from repro.obs import Observability, install_standard_gauges
from repro.protocols.config import geo_cluster
from repro.protocols.registry import MENCIUS_PROTOCOLS, PROTOCOLS
from repro.protocols.types import OpType
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import SplitRng
from repro.sim.topology import ec2_five_regions
from repro.sim.units import sec
from repro.workload.clients import ClosedLoopClient
from repro.workload.plan import FleetSpec


@dataclass
class ExperimentSpec(FleetSpec):
    """One single-group trial's parameters."""

    leader_site: str = "oregon"
    execution_mode: Optional[str] = None  # Mencius: "ordered"/"commutative"
    # Run the FULL history check (prefix agreement + per-key
    # linearizability of client-observed events) instead of prefix
    # agreement only — the pipelined figures assert this.
    full_check: bool = False


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    throughput_ops: float
    read_latency: Dict[str, Dict[str, float]]
    write_latency: Dict[str, Dict[str, float]]
    local_read_fraction: float
    completed: int
    violations: List[str]
    events_processed: int
    # Latency over ALL completions acked inside the window (reads +
    # writes, every site), submission-to-ack: open-loop queueing delay is
    # included, and long-queued requests are not excluded at saturation.
    overall_latency: Dict[str, float] = field(default_factory=dict)
    # Acks landing in the window per second, whatever their submission
    # time — the saturated-open-loop throughput measure.
    completion_throughput_ops: float = 0.0
    # The run's telemetry collector when the spec asked for it (spans,
    # gauges, profiler); None for plain runs.
    obs: Optional[Observability] = None

    def latency_ms(self, group: str, op: str, pct: str = "p90") -> float:
        table = self.read_latency if op == "read" else self.write_latency
        return table[group][pct]


class Cluster:
    """A built deployment: simulator, network, replicas, clients."""

    def __init__(self, spec: ExperimentSpec) -> None:
        self.spec = spec
        self.topology = spec.topology or ec2_five_regions()
        self.rng = SplitRng(spec.seed)
        self.sim = Simulator()
        net_config = NetworkConfig()  # FIFO links (TCP) for every protocol
        self.network = Network(self.sim, self.topology, rng=self.rng, config=net_config)
        self.metrics = MetricsRecorder()
        self.checker = HistoryChecker() if spec.check_history else None

        replica_cls = PROTOCOLS[spec.protocol]
        leader = None if spec.protocol in MENCIUS_PROTOCOLS else f"r_{spec.leader_site}"
        self.config = geo_cluster(self.topology.sites, initial_leader=leader)
        kwargs = {}
        if spec.protocol in MENCIUS_PROTOCOLS and spec.execution_mode is not None:
            kwargs["execution_mode"] = spec.execution_mode
        self.replicas = {
            name: replica_cls(name, self.sim, self.network, self.config, **kwargs)
            for name in self.config.names
        }
        if self.checker is not None:
            for replica in self.replicas.values():
                replica.on_apply_hooks.append(self.checker.record_apply)

        sites = self.topology.sites
        stop_at = sec(spec.duration_s)
        self.clients = spec.client_plan().spawn(
            sites, self.rng,
            lambda name, site, rng, **knobs: ClosedLoopClient(
                name, self.sim, self.network, site, f"r_{site}",
                spec.workload, sites, rng, self.metrics, stop_at=stop_at,
                **knobs))
        if self.checker is not None and spec.full_check:
            # Client-observed events feed the per-key linearizability
            # check (the pipelined figures assert check_all).
            record_client_events(self.clients, lambda server: self.checker)

        self.obs: Optional[Observability] = None
        if spec.obs:
            self.obs = Observability(self.sim, self.metrics)
            self.obs.install(self.replicas.values())
            self.obs.install(self.clients)
            install_standard_gauges(
                self.obs.sampler, replicas=self.replicas.values(),
                clients=self.clients, network=self.network)
            self.obs.sampler.start(stop_at=stop_at)

    @property
    def leader_replica(self):
        return self.replicas[f"r_{self.spec.leader_site}"]

    def run(self) -> ExperimentResult:
        spec = self.spec
        self.sim.run(until=sec(spec.duration_s))
        window_start, window_end = spec.window()
        violations: List[str] = []
        if self.checker is not None:
            violations = (self.checker.check_all() if spec.full_check
                          else self.checker.check_prefix_agreement())
        return ExperimentResult(
            spec=spec,
            throughput_ops=self.metrics.throughput_ops(window_start, window_end),
            read_latency=self.metrics.split_by_site(
                window_start, window_end, spec.leader_site, op=OpType.GET),
            write_latency=self.metrics.split_by_site(
                window_start, window_end, spec.leader_site, op=OpType.PUT),
            local_read_fraction=self.metrics.local_read_fraction(window_start, window_end),
            completed=len(self.metrics.window(window_start, window_end)),
            violations=violations,
            events_processed=self.sim.events_processed,
            overall_latency=self.metrics.completion_latency_summary_ms(
                window_start, window_end),
            completion_throughput_ops=self.metrics.completion_throughput(
                window_start, window_end),
            obs=self.obs,
        )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    return Cluster(spec).run()
