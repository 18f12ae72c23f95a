"""One function per figure of the paper's evaluation (§5).

Scale model (see EXPERIMENTS.md): the simulator's CPU/NIC budgets are ~20x
smaller than the paper's m4.xlarge testbed, so absolute ops/s are ~20x
lower; client counts and run durations are scaled accordingly.  The claims
under reproduction are *relative* (who wins, by what factor, where the
crossovers are), and those are preserved.

Every function returns `FigureTable`s ready to print and to assert against.
A `scale` < 1.0 shrinks client counts and durations proportionally for quick
smoke runs (tests use scale=0.3-0.5; the benchmark harness uses 1.0).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.live import (
    MembershipResult,
    MembershipSpec,
    ReshardResult,
    ReshardSpec,
    run_membership_experiment,
    run_reshard_experiment,
)
from repro.bench.report import FigureTable, render_timelines
from repro.obs import PHASE_LABELS, tail_budget
from repro.membership import DEFAULT_ALPHA
from repro.shard.cluster import (
    ShardedCluster,
    ShardedSpec,
    run_sharded_experiment,
)
from repro.shard.nemesis import Nemesis
from repro.shard.txn import (TxnCluster, TxnResult, TxnSpec,
                             run_txn_experiment)
from repro.sim.topology import ec2_three_regions
from repro.sim.units import ms, sec
from repro.workload.session import RetryPolicy
from repro.workload.ycsb import WorkloadConfig

PQL_SYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("Raft*-PQL", "raftstar-pql"),
    ("Raft*-LL", "leaderlease"),
    ("Raft", "raft"),
    ("Raft*", "raftstar"),
)


def _scaled(value: int, scale: float) -> int:
    return max(1, int(round(value * scale)))


def _trial(scale: float, seed: int, clients: int, duration_s: float,
           warmup_s: float, **workload) -> dict:
    """The spec fields of the trial shape every figure shares (§5: a fixed
    run with warm-up and cool-down trimmed), scaled: the fleet shrinks
    with `scale`, the run and its warm-up too but never below half."""
    stretch = max(scale, 0.5)
    return dict(clients_per_region=_scaled(clients, scale),
                duration_s=duration_s * stretch, warmup_s=warmup_s * stretch,
                cooldown_s=0.5, seed=seed,
                workload=WorkloadConfig(**workload))


# ---------------------------------------------------------------------------
# Figure 9a / 9b: read and write latency (90% read, 5% conflict)
# ---------------------------------------------------------------------------

def _site_split(pcts: Tuple[str, ...]) -> List[Tuple[str, str]]:
    """The paper's Leader/Followers latency split: the (group, percentile)
    of each column, in column order."""
    return [(group, pct) for group in ("leader", "followers") for pct in pcts]


def fig9_latency(scale: float = 1.0, seed: int = 1) -> Tuple[FigureTable, FigureTable]:
    split = _site_split(("p50", "p90", "p99"))
    columns = ["system", *(f"{group} {pct}" for group, pct in split)]
    reads = FigureTable(
        figure="Figure 9a",
        title="Read latency, ms (50th/90th/99th percentile)",
        columns=columns,
    )
    writes = FigureTable(
        figure="Figure 9b",
        title="Write latency, ms (50th/90th/99th percentile)",
        columns=list(columns),
    )
    for label, protocol in PQL_SYSTEMS:
        result = run_experiment(ExperimentSpec(protocol=protocol, **_trial(
            scale, seed, 8, 6.0, 1.5, read_fraction=0.9, conflict_rate=0.05)))
        for table, latency in ((reads, result.read_latency),
                               (writes, result.write_latency)):
            table.add_row(label, *(latency[group][pct]
                                   for group, pct in split))
    reads.notes.append("paper: PQL serves 90% of reads locally (~1 ms); "
                       "LL only at the leader; Raft/Raft* need 1 WAN RT")
    writes.notes.append("paper: PQL writes slightly higher (waits for lease "
                        "holders); others wait for the fastest majority")
    return reads, writes


# ---------------------------------------------------------------------------
# Figure 9c: peak throughput vs read percentage
# ---------------------------------------------------------------------------

def fig9c_peak_throughput(scale: float = 1.0, seed: int = 1) -> FigureTable:
    table = FigureTable(
        figure="Figure 9c",
        title="Peak throughput (ops/s) vs read percentage",
        columns=["system", "50% reads", "90% reads", "99% reads"],
    )
    read_fractions = (0.5, 0.9, 0.99)
    for label, protocol in PQL_SYSTEMS:
        cells: List[float] = []
        for read_fraction in read_fractions:
            spec = ExperimentSpec(protocol=protocol, **_trial(
                scale, seed, 60, 5.0, 1.5,
                read_fraction=read_fraction, conflict_rate=0.05))
            cells.append(run_experiment(spec).throughput_ops)
        table.add_row(label, *cells)
    table.notes.append("paper: Raft/Raft*/LL alike (leader CPU-bound); "
                       "Raft*-PQL 1.6x at 90% reads, 1.9x at 99%")
    return table


# ---------------------------------------------------------------------------
# Figure 9d: Raft*-PQL speedup over Raft* vs conflict rate
# ---------------------------------------------------------------------------

def fig9d_speedup(scale: float = 1.0, seed: int = 1,
                  conflict_rates: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                  ) -> FigureTable:
    table = FigureTable(
        figure="Figure 9d",
        title="Throughput speedup of Raft*-PQL over Raft* vs conflict rate "
              "(90% reads)",
        columns=["conflict rate", "Raft*-PQL ops/s", "Raft* ops/s", "speedup"],
    )
    for conflict in conflict_rates:
        throughput: Dict[str, float] = {}
        for protocol in ("raftstar-pql", "raftstar"):
            spec = ExperimentSpec(protocol=protocol, **_trial(
                scale, seed, 40, 5.0, 1.5,
                read_fraction=0.9, conflict_rate=conflict))
            throughput[protocol] = run_experiment(spec).throughput_ops
        speedup = (throughput["raftstar-pql"] / throughput["raftstar"]
                   if throughput["raftstar"] else float("nan"))
        table.add_row(f"{int(conflict * 100)}%", throughput["raftstar-pql"],
                      throughput["raftstar"], round(speedup, 2))
    table.notes.append("paper: speedup grows as the conflict rate drops "
                       "(followers answer immediately instead of waiting "
                       "for conflicting writes)")
    return table


# ---------------------------------------------------------------------------
# Figure 10: Mencius
# ---------------------------------------------------------------------------

MENCIUS_SYSTEMS: Tuple[Tuple[str, str, dict], ...] = (
    ("Raft*-M-100%", "mencius", {"execution_mode": "ordered"}),
    ("Raft*-M-0%", "mencius", {"execution_mode": "commutative"}),
    ("Raft-Oregon", "raft", {"leader_site": "oregon"}),
    ("Raft*-Oregon", "raftstar", {"leader_site": "oregon"}),
    ("Raft-Seoul", "raft", {"leader_site": "seoul"}),
)


def _mencius_spec(protocol: str, extras: dict, clients: int, value_size: int,
                  duration_s: float, seed: int) -> ExperimentSpec:
    conflict = 1.0 if extras.get("execution_mode") == "ordered" else 0.0
    return ExperimentSpec(
        protocol=protocol,
        clients_per_region=clients,
        duration_s=duration_s,
        warmup_s=min(1.5, duration_s / 3),
        cooldown_s=0.5,
        workload=WorkloadConfig(read_fraction=0.0, conflict_rate=conflict,
                                value_size=value_size),
        seed=seed,
        **extras,
    )


def fig10_throughput(value_size: int, client_points: Tuple[int, ...],
                     scale: float = 1.0, seed: int = 1) -> FigureTable:
    figure = "Figure 10a" if value_size <= 64 else "Figure 10b"
    bound = "CPU-bound (8 B)" if value_size <= 64 else "network-bound (4 KB)"
    table = FigureTable(
        figure=figure,
        title=f"Throughput (ops/s) vs clients per region, {bound}",
        columns=["system"] + [f"{c} cl/region" for c in client_points],
    )
    for label, protocol, extras in MENCIUS_SYSTEMS:
        cells = []
        for clients in client_points:
            spec = _mencius_spec(protocol, extras, _scaled(clients, scale),
                                 value_size, 5.0 * max(scale, 0.5), seed)
            cells.append(run_experiment(spec).throughput_ops)
        table.add_row(label, *cells)
    if value_size <= 64:
        table.notes.append("paper: Mencius ~55K vs single-leader ~41K once "
                           "leader CPU saturates (load balanced over replicas)")
    else:
        table.notes.append("paper: Raft saturates the leader NIC; Mencius "
                           "~70% above Raft-Oregon using all replicas' NICs")
    return table


def fig10a_throughput_8b(scale: float = 1.0, seed: int = 1) -> FigureTable:
    return fig10_throughput(8, (10, 60, 120, 200), scale=scale, seed=seed)


def fig10b_throughput_4kb(scale: float = 1.0, seed: int = 1) -> FigureTable:
    return fig10_throughput(4096, (5, 15, 30, 60), scale=scale, seed=seed)


def fig10_latency(value_size: int, scale: float = 1.0, seed: int = 1) -> FigureTable:
    figure = "Figure 10c" if value_size <= 64 else "Figure 10d"
    split = _site_split(("p50", "p90"))
    table = FigureTable(
        figure=figure,
        title=f"Write latency, ms ({'8 B' if value_size <= 64 else '4 KB'}, "
              f"50 clients/region)",
        columns=["system", *(f"{group} {pct}" for group, pct in split)],
    )
    for label, protocol, extras in MENCIUS_SYSTEMS:
        spec = _mencius_spec(protocol, extras, _scaled(10, scale), value_size,
                             6.0 * max(scale, 0.5), seed)
        latency = run_experiment(spec).write_latency
        table.add_row(label, *(latency[group][pct] for group, pct in split))
    table.notes.append("'leader' = Oregon-region clients (Mencius has no "
                       "single leader); paper: Raft-Oregon's leader is "
                       "lowest (~79 ms); M-100% much higher (needs all "
                       "commit decisions); M-0% bounded by the farthest "
                       "replica's skips")
    return table


def fig10c_latency_8b(scale: float = 1.0, seed: int = 1) -> FigureTable:
    return fig10_latency(8, scale=scale, seed=seed)


def fig10d_latency_4kb(scale: float = 1.0, seed: int = 1) -> FigureTable:
    return fig10_latency(4096, scale=scale, seed=seed)


def mencius_pipeline(scale: float = 1.0, seed: int = 1,
                     depths: Tuple[int, ...] = (1, 2, 4, 8)) -> FigureTable:
    """Pipelined Mencius (beyond the paper): closed-loop throughput vs
    session depth over BOTH execution modes.  Mencius is leaderless —
    every replica owns a rotating share of the log — so a deep window
    fans in-flight commands out to every owner at once, and commutative
    execution re-orders non-conflicting commands between skips.  Same
    client fleet on every cell; only the per-session window differs."""
    table = _depth_sweep(
        "Mencius-pipeline",
        "Pipelined Mencius: throughput (ops/s) vs session depth, "
        "both execution modes, 3 sites, 50% reads",
        (("Mencius-100% (ordered)", "ordered"),
         ("Mencius-0% (commutative)", "commutative")),
        depths,
        lambda mode, depth: pipeline_spec(
            scale, seed, "mencius", depth).with_(execution_mode=mode))
    table.notes.append("'linearizable' = full HistoryChecker over "
                       "client-observed events in both modes — the "
                       "commutative mode may re-order between skip "
                       "announcements but must not show it to clients")
    table.notes.append("the depth speedup is the Marandi et al. claim "
                       "replayed on a leaderless log: in-flight requests, "
                       "not client count, set consensus throughput")
    return table


# ---------------------------------------------------------------------------
# Pipeline: session depth sweep + open-loop latency-vs-offered-load curve
# (beyond the paper — its figures are closed-loop, so measured throughput is
# as much a property of the client fleet as of the protocol; Marandi et al.
# show in-flight client requests are the dominant Paxos throughput knob)
# ---------------------------------------------------------------------------

#: Session window of the open-loop figures (`pipeline`'s curve, `tail`):
#: deep enough that the fleet, not the window, is never the limit.
OPEN_LOOP_DEPTH = 8

PIPELINE_SYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("Raft", "raft"),
    ("MultiPaxos", "multipaxos"),
    ("Raft*-PQL (lease reads)", "raftstar-pql"),
)


def pipeline_spec(scale: float, seed: int, protocol: str, depth: int,
                  offered_load: Optional[float] = None,
                  clients_per_region: int = 3) -> ExperimentSpec:
    """One pipelined trial on the tight-majority 3-site deployment
    (Oregon/Ohio/Canada, Oregon leads): few clients, `depth`-deep
    sessions, full history check (prefix agreement + per-key
    linearizability of client events)."""
    return ExperimentSpec(
        protocol=protocol,
        leader_site="oregon",
        topology=ec2_three_regions(),
        **_trial(scale, seed, clients_per_region, 6.0, 1.5,
                 read_fraction=0.5, conflict_rate=0.05),
        check_history=True,
        full_check=True,
        pipeline_depth=depth,
        offered_load=offered_load,
    )


def _depth_sweep(figure: str, title: str, systems, depths,
                 spec_for) -> FigureTable:
    """Closed-loop throughput at each session depth for every
    ``(label, *key)`` system; `spec_for(*key, depth)` builds the trial."""
    depths = tuple(depths)
    base = min(depths)
    table = FigureTable(
        figure=figure, title=title,
        columns=["system", *[f"depth {d}" for d in depths],
                 f"d{max(depths)}/d{base}", "linearizable"],
    )
    for label, *key in systems:
        cells: Dict[int, float] = {}
        clean = True
        for depth in depths:
            result = run_experiment(spec_for(*key, depth))
            cells[depth] = result.throughput_ops
            clean = clean and not result.violations
        speedup = (cells[max(depths)] / cells[base] if cells[base]
                   else float("nan"))
        table.add_row(label, *[cells[d] for d in depths],
                      round(speedup, 2), "yes" if clean else "NO")
    return table


def pipeline_depth_sweep(scale: float = 1.0, seed: int = 1,
                         depths: Tuple[int, ...] = (1, 2, 4, 8)) -> FigureTable:
    """Closed-loop throughput vs session pipeline depth at EQUAL client
    count.  Depth 1 is the paper's client; deeper sessions keep more
    commands in flight per client, so the same small fleet drives the
    leader to saturation — the claim (after Marandi et al.) that in-flight
    requests, not client count, set consensus throughput."""
    table = _depth_sweep(
        "Pipeline",
        "Closed-loop throughput (ops/s) vs session pipeline depth, "
        "3 sites, equal client count, 50% reads",
        PIPELINE_SYSTEMS, depths,
        lambda protocol, depth: pipeline_spec(scale, seed, protocol, depth))
    table.notes.append("equal client fleet on every cell — only the "
                       "per-session window differs; depth 1 is the "
                       "pre-session closed-loop client")
    table.notes.append("'linearizable' = full HistoryChecker (prefix "
                       "agreement + per-key real-time linearizability of "
                       "every client-observed read and write); the PQL "
                       "row serves its reads from leases while "
                       "pipelined")
    return table


def pipeline_open_loop(scale: float = 1.0, seed: int = 1,
                       loads: Tuple[float, ...] = (200, 400, 800, 1600),
                       protocols: Tuple[Tuple[str, str], ...] = (
                           ("Raft", "raft"), ("MultiPaxos", "multipaxos")),
                       obs: bool = False) -> FigureTable:
    """The latency-vs-offered-load curve: Poisson arrivals at a target
    aggregate rate, latency measured from submission (queueing included).
    Offered loads are NOT scaled by `scale` — service capacity does not
    scale either, and the knee is the point of the figure.  With `obs` the
    runs collect request spans and each protocol's highest-load p99 request
    gets a one-line latency budget in the notes (see the `tail` figure for
    the full breakdown)."""
    table = FigureTable(
        figure="Pipeline-openloop",
        title=f"Open-loop latency vs offered load (depth-{OPEN_LOOP_DEPTH} "
              "sessions, 3 sites, 50% reads; latency from submission)",
        columns=["offered ops/s",
                 *[f"{label} {col}" for label, _ in protocols
                   for col in ("ops/s", "mean ms", "p99 ms", "p999 ms")],
                 "linearizable"],
    )
    curves: Dict[str, List[Tuple[float, float, float]]] = {}
    budgets: Dict[str, Dict[str, Dict[str, object]]] = {}
    for load in loads:
        cells: List[float] = []
        clean = True
        for label, protocol in protocols:
            result = run_experiment(pipeline_spec(
                scale, seed, protocol, OPEN_LOOP_DEPTH,
                offered_load=float(load),
                clients_per_region=4).with_(obs=obs))
            achieved = result.completion_throughput_ops
            mean_ms = result.overall_latency["mean"]
            p99_ms = result.overall_latency["p99"]
            p999_ms = result.overall_latency["p999"]
            cells.extend([achieved, mean_ms, p99_ms, p999_ms])
            curves.setdefault(label, []).append((load, achieved, mean_ms))
            clean = clean and not result.violations
            if result.obs is not None:
                budgets[label] = result.obs.tail_budget(pcts=(99.0,))
        table.add_row(f"{load:g}", *cells, "yes" if clean else "NO")
    for label, points in curves.items():
        sat = max(points, key=lambda p: p[1])
        table.notes.append(
            f"{label}: saturates near {sat[1]:.0f} ops/s — past the knee "
            f"the queue grows and mean latency leaves the service-time "
            f"floor ({points[0][2]:.0f} ms at {points[0][0]:g} offered -> "
            f"{points[-1][2]:.0f} ms at {points[-1][0]:g})")
    table.notes.append("open-loop arrivals do not slow down with the "
                       "server: offered > capacity shows up as queueing "
                       "delay, the knee closed-loop figures cannot show")
    for label, report in budgets.items():
        entry = report.get("p99")
        if not entry:
            continue
        bucket, us = max(entry["budget_us"].items(), key=lambda kv: kv[1])
        table.notes.append(
            f"{label} p99 budget at {loads[-1]:g} offered (--obs): "
            f"{bucket} {us / 1000:.0f} ms of "
            f"{entry['latency_us'] / 1000:.0f} ms — run the `tail` figure "
            f"for the phase-by-phase breakdown")
    return table


def pipeline_figures(scale: float = 1.0, seed: int = 1,
                     depths: Tuple[int, ...] = (1, 2, 4, 8),
                     loads: Tuple[float, ...] = (200, 400, 800, 1600),
                     obs: bool = False) -> str:
    """The full `pipeline` CLI figure: depth sweep + open-loop curve."""
    return (pipeline_depth_sweep(scale, seed, depths=depths).render()
            + "\n\n"
            + pipeline_open_loop(scale, seed, loads=loads, obs=obs).render())


# ---------------------------------------------------------------------------
# Tail: where does the tail live?  One open-loop run past the saturation
# knee with full observability on (repro.obs) — the latency budget the
# open-loop curve's p99 column cannot show.
# ---------------------------------------------------------------------------

#: Gauge families shown under the tail figure, headline (peak) series each.
_TAIL_GAUGE_FAMILIES: Tuple[str, ...] = (
    "session_submit_queue", "session_in_flight", "cpu_backlog_us",
    "nic_backlog_us", "mux_buffered", "commit_lag", "lock_table",
)


def _headline_gauges(gauges: Dict[str, List[Tuple[int, float]]]) -> List[str]:
    """Pick the peak series of each gauge family (a family covers all
    per-host/per-replica series, e.g. `cpu_backlog_us.*`)."""
    picked: List[str] = []
    for family in _TAIL_GAUGE_FAMILIES:
        candidates = [name for name in gauges
                      if name == family or name.startswith(f"{family}.")]
        if not candidates:
            continue
        picked.append(max(candidates, key=lambda name: max(
            (value for _, value in gauges[name]), default=0.0)))
    return picked


def tail_figure(scale: float = 1.0, seed: int = 1,
                offered_load: float = 1600.0,
                metrics_out: Optional[str] = None) -> str:
    """The `tail` CLI figure: one open-loop run past the knee with spans,
    gauges and the sim profiler all on.  Reports the exemplar request at
    p50/p99/p999 of the end-to-end latency distribution broken down phase
    by phase (the phases sum to the latency exactly — interval
    attribution), the queue gauges the waiting happened in, and the
    profiler's ranked wall-clock report.  `metrics_out` additionally dumps
    the raw telemetry (records/spans/gauges/profile) as JSONL."""
    spec = pipeline_spec(scale, seed, "raft", OPEN_LOOP_DEPTH,
                         offered_load=float(offered_load),
                         clients_per_region=4).with_(obs=True)
    result = run_experiment(spec)
    obs = result.obs
    recon = obs.reconstruct()
    spans = recon.spans()
    budget = tail_budget(spans)
    if not budget:
        message = (f"Tail: no complete spans reconstructed "
                   f"({len(recon.incomplete())} in flight at run end) — "
                   f"run longer (--scale) or raise the span ring capacity")
        if metrics_out:
            lines = obs.dump(metrics_out, meta={"figure": "tail"})
            message += f"\ntelemetry: {lines} JSONL lines -> {metrics_out}"
        return message
    pct_names = list(budget)
    table = FigureTable(
        figure="Tail",
        title=f"Phase-by-phase latency budget (ms), raft at "
              f"{offered_load:g} offered ops/s past the knee, "
              f"depth-{OPEN_LOOP_DEPTH} sessions, 3 sites",
        columns=["phase", *pct_names, "the interval covers"],
    )
    seen = set()
    for entry in budget.values():
        seen.update(entry["phases_us"])
    for phase in PHASE_LABELS:
        if phase not in seen:
            continue
        cells = [
            ("-" if phase not in budget[p]["phases_us"]
             else f"{budget[p]['phases_us'][phase] / 1000:.1f}")
            for p in pct_names
        ]
        table.add_row(phase, *cells, PHASE_LABELS[phase])
    table.add_row(
        "end-to-end",
        *[f"{budget[p]['latency_us'] / 1000:.1f}" for p in pct_names],
        "the phases above sum to this (interval attribution)")
    for p in pct_names:
        entry = budget[p]
        phase_sum = sum(entry["phases_us"].values())
        drift = (abs(phase_sum - entry["latency_us"])
                 / max(entry["latency_us"], 1))
        bucket, us = max(entry["budget_us"].items(), key=lambda kv: kv[1])
        table.notes.append(
            f"{p} exemplar {entry['trace']} "
            f"({entry['attempts']} attempt(s)): {bucket} dominates with "
            f"{us / 1000:.1f} of {entry['latency_us'] / 1000:.1f} ms "
            f"({us / max(entry['latency_us'], 1) * 100:.0f}%); "
            f"phase-sum drift {drift * 100:.2f}%")
    table.notes.append(
        f"{len(spans)} complete spans "
        f"({len(recon.incomplete())} still in flight at run end, "
        f"{obs.dropped} phase records ring-evicted); achieved "
        f"{result.completion_throughput_ops:.0f} ops/s, measured latency "
        f"mean {result.overall_latency['mean']:.0f} / "
        f"p99 {result.overall_latency['p99']:.0f} / "
        f"p999 {result.overall_latency['p999']:.0f} ms")
    parts = [table.render()]
    headline = _headline_gauges(obs.metrics.gauges)
    if headline:
        parts.append("queue gauges (bucket maxima over the run; one line "
                     "per family's peak series):\n"
                     + render_timelines(obs.metrics.gauges, names=headline))
    parts.append(obs.profiler.render())
    if metrics_out:
        lines = obs.dump(metrics_out, meta={
            "figure": "tail", "protocol": "raft", "scale": scale,
            "seed": seed, "offered_load": offered_load,
            "depth": OPEN_LOOP_DEPTH,
            "achieved_ops": result.completion_throughput_ops,
        })
        parts.append(f"telemetry: {lines} JSONL lines -> {metrics_out}")
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Sharding: throughput vs shard count (beyond the paper — the production
# answer to the Figure 10b single-leader ceiling)
# ---------------------------------------------------------------------------

def _shard_column(count: int) -> str:
    return f"{count} shard" + ("s" if count != 1 else "")


def sharding_scaling(scale: float = 1.0, seed: int = 1,
                     shard_counts: Tuple[int, ...] = (1, 2, 4, 8),
                     placements: Tuple[str, ...] = ("spread", "colocated"),
                     ) -> FigureTable:
    """Aggregate committed throughput vs shard count, per leader placement.

    Fixed offered load (clients per region constant), network-bound 4 KB
    writes over a uniform keyspace.  One shard is the paper's deployment:
    the leader's NIC is the ceiling.  Sharding multiplies leaders; `spread`
    puts them in different regions so every regional uplink is spent, while
    `colocated` funnels every group's replication through one region's
    uplink — the Figure 10b bottleneck again, one level up.
    """
    table = FigureTable(
        figure="Sharding",
        title="Aggregate throughput (ops/s) vs shard count, raft, "
              "4 KB writes, uniform keys",
        columns=["placement", *map(_shard_column, shard_counts), "linearizable"],
    )
    for placement in placements:
        cells: List[float] = []
        clean = True
        for count in shard_counts:
            spec = ShardedSpec(
                protocol="raft",
                num_shards=count,
                placement=placement,
                **_trial(scale, seed, 60, 6.0, 1.8, read_fraction=0.1,
                         conflict_rate=0.0, value_size=4096),
                check_history=True,
            )
            result = run_sharded_experiment(spec)
            clean = clean and result.linearizable and result.filtered == 0
            cells.append(result.throughput_ops)
        table.add_row(placement, *cells, "yes" if clean else "NO")
    table.notes.append("per-shard HistoryChecker: prefix agreement, "
                       "per-key real-time linearizability of client reads "
                       "and writes — 'linearizable' covers every shard of "
                       "every point")
    table.notes.append("colocated pins every shard leader in one region; "
                       "its shared uplink caps aggregate throughput where "
                       "spread keeps scaling until the offered load is served")
    return table


# ---------------------------------------------------------------------------
# Coalesce: host-multiplexed groups with cross-group message coalescing
# (beyond the paper — the multi-raft answer to the Figure 9c/10a
# per-message CPU ceiling: amortize the headers across colocated groups)
# ---------------------------------------------------------------------------

def coalesce_spec(scale: float = 1.0, seed: int = 1, num_shards: int = 8,
                  coalesce: bool = True) -> ShardedSpec:
    """One host-multiplexed trial: every site runs ONE machine hosting all
    `num_shards` group replicas, leaders colocated in one region, 8 B
    CPU-bound writes.  The offered load is fixed (not scaled): the figure
    measures the saturated leader host, where per-message header work is
    the bottleneck that coalescing amortizes — `scale` shortens the run.
    """
    return ShardedSpec(
        protocol="raft",
        num_shards=num_shards,
        placement="colocated",
        **dict(_trial(scale, seed, 60, 6.0, 1.8, read_fraction=0.1,
                      conflict_rate=0.0, value_size=8),
               clients_per_region=60),  # the fixed offered load
        check_history=True,
        site_uplink_factor=None,
        hosts_per_site=1,
        coalesce=coalesce,
        coalesce_flush_interval=int(ms(2)),
    )


def coalesce_figure(scale: float = 1.0, seed: int = 1,
                    shard_counts: Tuple[int, ...] = (2, 4, 8),
                    modes: Tuple[str, ...] = ("off", "on")) -> FigureTable:
    """Throughput with and without cross-group coalescing, vs shard count,
    at colocated placement on one shared host per site.

    Without coalescing, eight colocated leaders each pay `per_message` CPU
    (and 48 header bytes) for every append/reply/heartbeat on the shared
    machine.  With coalescing, all messages to the same destination host
    ride one envelope per flush tick and the leaders' empty heartbeats
    merge into one host beacon — the TiKV/Cockroach store-level batching.
    """
    table = FigureTable(
        figure="Coalesce",
        title="Host-multiplexed throughput (ops/s) vs shard count, "
              "raft, colocated leaders, 1 host/site, 8 B writes",
        columns=["coalescing", *map(_shard_column, shard_counts),
                 "msgs/envelope", "linearizable"],
    )
    peak = max(shard_counts)
    results: Dict[str, Dict[int, object]] = {}
    for mode in modes:
        cells: List[float] = []
        clean = True
        amortization = 0.0
        results[mode] = {}
        for count in shard_counts:
            result = run_sharded_experiment(coalesce_spec(
                scale, seed, num_shards=count, coalesce=(mode == "on")))
            results[mode][count] = result
            clean = clean and result.linearizable and result.filtered == 0
            cells.append(result.throughput_ops)
            if count == peak:
                amortization = result.messages_per_envelope
        table.add_row(mode, *cells, round(amortization, 2),
                      "yes" if clean else "NO")
    if "on" in results and "off" in results:
        on, off = results["on"][peak], results["off"][peak]
        speedup = (on.throughput_ops / off.throughput_ops
                   if off.throughput_ops else float("nan"))
        counters = on.counters
        table.notes.append(
            f"at {peak} shards: coalescing {speedup:.2f}x throughput; "
            f"envelopes={counters.get('coalesce_envelopes', 0)} carrying "
            f"messages={counters.get('coalesce_messages', 0)} "
            f"(+beacon beats={counters.get('coalesce_beacon_beats', 0)} "
            f"merged into beacons={counters.get('coalesce_beacons', 0)}) — "
            f"{on.messages_per_envelope:.1f} messages per per-message "
            f"header paid")
    table.notes.append("same machines, same load, same protocol on both "
                       "rows; only the transport differs — the delta is "
                       "per-message CPU-header amortization (ONE "
                       "NodeCosts.per_message per envelope; wire bytes "
                       "keep their per-message framing)")
    table.notes.append("offered load is fixed at 60 clients/region: the "
                       "figure requires a saturated leader host, so "
                       "--scale shortens the run instead of shedding load")
    return table


# ---------------------------------------------------------------------------
# Reshard: a live N -> M split under load (beyond the paper — the shard
# layer's answer to reconfiguration, where Howard & Mortier locate the hard
# correctness/performance tradeoffs)
# ---------------------------------------------------------------------------

def reshard_spec(scale: float = 1.0, seed: int = 1,
                 shards_from: int = 2, shards_to: int = 4,
                 reshard_at_s: Optional[float] = None) -> ReshardSpec:
    """The reshard figure's trial: network-bound 4 KB writes saturating
    `shards_from` groups, split to `shards_to` mid-run under load."""
    trial = _trial(scale, seed, 60, 10.0, 1.8, read_fraction=0.1,
                   conflict_rate=0.0, value_size=4096)
    return ReshardSpec(
        protocol="raft",
        num_shards=shards_from,
        placement="spread",
        **trial,
        check_history=True,
        reshard_to=shards_to,
        reshard_at_s=(reshard_at_s if reshard_at_s is not None
                      else 0.4 * trial["duration_s"]),
    )


def _accounting_notes(result, change: str, twice: str = "",
                      bounced: str = "commands") -> List[str]:
    """The two notes a live-transition table ends with: the run's
    `Accounting` spelled out, and the checker verdict across `change`."""
    return [
        f"ack accounting: {result.completed} completions, "
        f"{result.acks_lost} lost, {result.acks_duplicated} duplicated, "
        f"{result.duplicate_executions} writes executed twice{twice}; "
        f"{result.redirects} redirects ({result.capped_redirects} hit the "
        f"hop cap), {result.filtered} {bounced} bounced at apply",
        f"per-shard HistoryChecker across the {change}: "
        + ("all linearizable" if result.linearizable
           else f"VIOLATIONS {result.violations}")]


def reshard_table(result: ReshardResult) -> FigureTable:
    """Render a `ReshardResult` as the reshard throughput-timeline figure."""
    spec = result.spec
    table = FigureTable(
        figure="Reshard",
        title=(f"Live reshard {spec.num_shards}->{spec.reshard_to} under "
               f"load ({spec.protocol}, 4 KB writes): throughput timeline"),
        columns=["t (s)", "ops/s", "phase"],
    )
    done_s = result.migration_completed_s or float("inf")
    for start, ops, _p99 in result.timeline:
        if start < spec.reshard_at_s:
            phase = f"pre-split ({spec.num_shards} shards)"
        elif start < done_s:
            phase = "migrating"
        else:
            phase = f"post-split ({spec.reshard_to} shards)"
        table.add_row(f"{start:.1f}", ops, phase)
    table.notes.append(
        f"steady-state throughput: {result.pre_throughput:.1f} ops/s before "
        f"the split, {result.post_throughput:.1f} after; migration of "
        f"{result.moves} key ranges took {result.migration_ms:.0f} ms")
    table.notes += _accounting_notes(
        result, "epoch change", bounced="boundary commands",
        twice=" (store versions vs distinct acked PUTs)")
    return table


def reshard_timeline(scale: float = 1.0, seed: int = 1,
                     shards_from: int = 2, shards_to: int = 4,
                     reshard_at_s: Optional[float] = None) -> FigureTable:
    return reshard_table(run_reshard_experiment(ShardedCluster(
        reshard_spec(scale, seed, shards_from=shards_from,
                     shards_to=shards_to, reshard_at_s=reshard_at_s))))


# ---------------------------------------------------------------------------
# Membership: live host replacement through logged config changes (beyond
# the paper — voter sets as versioned replica state, joint consensus for
# the Raft family vs α-bounded reconfiguration for the Paxos family,
# driven through the same harness so the two styles are comparable)
# ---------------------------------------------------------------------------

def membership_spec(scale: float = 1.0, seed: int = 1,
                    protocol: str = "raft",
                    replace_at_s: Optional[float] = None,
                    alpha: int = 0) -> MembershipSpec:
    """The membership figure's trial: open-ended load over two groups
    on one machine per site; one machine dies permanently at
    `replace_at_s` and is replaced live.  The run is long relative to the
    replacement so the post window measures steady state, not the dip."""
    trial = _trial(scale, seed, 30, 12.0, 1.8, read_fraction=0.1,
                   conflict_rate=0.0, value_size=1024)
    return MembershipSpec(
        protocol=protocol,
        num_shards=2,
        placement="spread",
        **trial,
        check_history=True,
        # A replaced machine never answers: the retry timeout is the
        # client-visible failover knob, so the figure uses a schedule
        # sized to the replacement, not the legacy 5 s constant.
        retry=RetryPolicy(retry_timeout=ms(800), retry_cap=sec(4)),
        replace_at_s=(replace_at_s if replace_at_s is not None
                      else 0.3 * trial["duration_s"]),
        alpha=alpha,
    )


def membership_table(result: MembershipResult) -> FigureTable:
    """Render a `MembershipResult` as a throughput/p99 timeline figure."""
    spec = result.spec
    style = ("joint consensus (quorums over Cold AND Cnew while joint)"
             if result.kind == "joint"
             else f"α-bounded single-decree (α="
                  f"{spec.alpha or DEFAULT_ALPHA})")
    table = FigureTable(
        figure="Membership",
        title=(f"Live host replacement under load ({spec.protocol}, "
               f"{result.kind}): throughput/p99 timeline"),
        columns=["t (s)", "ops/s", "p99 (ms)", "phase"],
    )
    done_s = result.replace_completed_s or float("inf")
    for start, ops, p99 in result.timeline:
        if start < spec.replace_at_s:
            phase = "pre-replacement"
        elif start < done_s:
            phase = "replacing"
        else:
            phase = "post-replacement"
        p99_cell = f"{p99:.1f}" if p99 == p99 else "-"
        table.add_row(f"{start:.1f}", ops, p99_cell, phase)
    table.notes.append(
        f"reconfiguration style: {style}; {result.replaced_host} died at "
        f"t={result.replace_started_s:.1f}s, replaced by "
        f"{result.replacement_host}")
    table.notes.append(
        f"config_changes={result.config_changes} committed transitions "
        f"across {result.groups_changed} hosted groups; replacement took "
        f"{result.replacement_ms:.0f} ms, throughput stalled (<50% of "
        f"pre) for {result.stall_s:.1f} s")
    table.notes.append(
        f"steady-state throughput: {result.pre_throughput:.1f} ops/s "
        f"before the kill, {result.post_throughput:.1f} after the splice "
        f"({result.throughput_ratio:.2f}x)")
    table.notes += _accounting_notes(result, "config change")
    return table


def membership_contrast_table(joint: MembershipResult,
                              alpha: MembershipResult) -> FigureTable:
    """The joint-vs-α contrast: the same host replacement, both styles."""
    table = FigureTable(
        figure="Membership-contrast",
        title="Joint consensus vs α-bounded reconfiguration: one machine "
              "replaced live, same harness, both styles",
        columns=["style", "protocol", "replacement (ms)", "stall (s)",
                 "post/pre tput", "sim events", "safe"],
    )
    for result in (joint, alpha):
        table.add_row(
            result.kind, result.spec.protocol,
            f"{result.replacement_ms:.0f}",
            f"{result.stall_s:.1f}",
            round(result.throughput_ratio, 2),
            result.events_processed,
            "yes" if result.replacement_completed and result.safe else "NO")
    table.notes.append(
        "joint logs TWO entries per group (joint, then final) and holds "
        "quorums over both configs in between — no unavailability window "
        "but every commit pays the wider intersection while joint")
    table.notes.append(
        "α-bounded logs ONE config entry, but slots within α of the "
        "decision stay under the OLD voters — including the dead "
        "machine's replica, so those slots pay the next-nearest quorum "
        "until the window drains (α slots per group at the run's rate)")
    table.notes.append(
        "'sim events' is the whole-run event count under identical load "
        "and duration — the message-cost proxy for the styles' overhead")
    return table


def membership_timeline(scale: float = 1.0, seed: int = 1,
                        protocol: str = "raft",
                        replace_at_s: Optional[float] = None,
                        alpha: int = 0,
                        ) -> Tuple[List[FigureTable],
                                   Dict[str, MembershipResult]]:
    """The full `membership` CLI figure: the requested protocol's
    replacement timeline, the opposite family's timeline, and the
    joint-vs-α contrast over the pair.  Also returns the two results,
    keyed by reconfiguration style ("joint", "alpha")."""
    def run(protocol: str) -> MembershipResult:
        return run_membership_experiment(ShardedCluster(membership_spec(
            scale, seed, protocol=protocol, replace_at_s=replace_at_s,
            alpha=alpha)))

    first = run(protocol)
    second = run("multipaxos" if first.kind == "joint" else "raft")
    by_kind = {first.kind: first, second.kind: second}
    return [membership_table(first), membership_table(second),
            membership_contrast_table(by_kind["joint"], by_kind["alpha"]),
            ], by_kind


# ---------------------------------------------------------------------------
# Cross-shard transactions: committed throughput vs shard count and
# cross-shard ratio, plus the same trial under a nemesis fault schedule
# (beyond the paper — 2PC composed over the protocol-agnostic groups)
# ---------------------------------------------------------------------------


def txn_spec(scale: float = 1.0, seed: int = 1, num_shards: int = 4,
             cross_shard_ratio: float = 0.1) -> TxnSpec:
    """One transactional trial: 2-op transactions, 50 % reads, 64 B
    values, a cross-shard 2PC with probability `cross_shard_ratio`."""
    return TxnSpec(
        protocol="raft",
        num_shards=num_shards,
        placement="spread",
        **_trial(scale, seed, 20, 6.0, 1.5, read_fraction=0.5,
                 conflict_rate=0.0, value_size=64, records=10_000),
        check_history=True,
        txn_size=2,
        cross_shard_ratio=cross_shard_ratio,
    )


def txn_scaling(scale: float = 1.0, seed: int = 1,
                shard_counts: Tuple[int, ...] = (1, 2, 4),
                cross_ratios: Tuple[float, ...] = (0.0, 0.1, 0.5),
                ) -> FigureTable:
    """Committed transactional throughput (ops/s = txns/s x txn_size) vs
    shard count, swept over the cross-shard ratio.  At 0 % every
    transaction takes the single-command fast path — one atomic log entry
    in the owning group — so the row tracks plain sharded throughput; the
    50 % row pays a prepare round for half its transactions, answered at
    the last logged yes vote (phase 2 runs after the answer)."""
    table = FigureTable(
        figure="Txn",
        title="Transactional throughput (ops/s) vs shard count, raft, "
              "2-op txns, 50% reads, 64 B values",
        columns=["cross-shard", *map(_shard_column, shard_counts),
                 "strict-serializable + zero lost/dup acks"],
    )
    for ratio in cross_ratios:
        cells: List[float] = []
        clean = "yes"
        for count in shard_counts:
            result = run_txn_experiment(txn_spec(
                scale, seed, num_shards=count, cross_shard_ratio=ratio))
            cells.append(result.ops_throughput)
            if not result.safe:
                clean = result.describe()
        table.add_row(f"{int(ratio * 100)}%", *cells, clean)
    table.notes.append("0% cross-shard = single-command fast path (one "
                       "atomic log entry per txn); 2PC prepares lock keys "
                       "wait-die and the client is answered at the last "
                       "logged yes vote (phase 2 binds the decision in the "
                       "home shard, then installs, in the background)")
    table.notes.append("'strict-serializable' = Elle-style cycle check over "
                       "wr/ww/rw/real-time edges against the stores' "
                       "per-key install orders, plus ack accounting")
    return table


def txn_fault_nemesis(cluster, seed: int = 1) -> Nemesis:
    """The figure's fault schedule: a shard leader killed mid-prepare
    traffic, the busiest coordinator killed mid-commit traffic, and a
    leader partitioned later — recovery must resolve the dead
    coordinator's handles by their logged votes."""
    duration = cluster.spec.duration_s
    nemesis = Nemesis(cluster, seed=seed)
    nemesis.leader_kill_at(0.3 * duration)
    nemesis.coordinator_kill_at(0.45 * duration, 0)
    nemesis.leader_partition_at(0.6 * duration)
    # Machine-granular: a coordinator host (with its control replica)
    # stays dark past lease expiry, so a peer MUST fence and sweep it —
    # the figure's "coordinator failovers" row counts these takeovers.
    nemesis.coordinator_host_kill_at(0.7 * duration, role="txn")
    return nemesis


def txn_faults(scale: float = 1.0, seed: int = 1, num_shards: int = 4,
               cross_shard_ratio: float = 0.5,
               ) -> Tuple[FigureTable, TxnResult]:
    """The 50 %-cross-shard trial re-run under the nemesis schedule."""
    cluster = TxnCluster(txn_spec(scale, seed, num_shards=num_shards,
                                  cross_shard_ratio=cross_shard_ratio))
    nemesis = txn_fault_nemesis(cluster, seed=seed)
    result = cluster.run()
    table = FigureTable(
        figure="Txn-faults",
        title=f"{int(cross_shard_ratio * 100)}% cross-shard transactions "
              f"under faults (raft, {num_shards} shards): leader kill "
              "mid-prepare, coordinator kill mid-commit, leader partition, "
              "coordinator HOST kill (failover to a standby)",
        columns=["metric", "value"],
    )
    table.add_row("committed txns", result.committed_total)
    table.add_row("txn throughput (txn/s)", result.txn_throughput)
    table.add_row("2PC commits / attempt aborts / waits",
                  f"{result.commits_2pc} / {result.attempt_aborts} / "
                  f"{result.waits}")
    table.add_row("coordinator recoveries", result.recoveries)
    table.add_row("coordinator failovers (host kill)", result.failovers)
    table.add_row("acks lost / duplicated", f"{result.acks_lost} / "
                                            f"{result.acks_duplicated}")
    table.add_row("acked writes re-executed", result.duplicate_executions)
    table.add_row("strict-serializability violations",
                  len(result.serializability_violations))
    table.add_row("prepared locks left (in-flight only)", result.locks_left)
    for at_s, what in nemesis.log:
        table.notes.append(f"t={at_s:.2f}s {what}")
    return table, result


def _host_kill_takeover_ms(nemesis: Nemesis, coordinators) -> float:
    """Wall time from the schedule's (only) host kill to the first
    takeover of a coordinator that kill took down, in milliseconds — not
    of a live peer some janitor suspected meanwhile."""
    if not nemesis.killed_hosts:
        return float("nan")
    kill_s, host = nemesis.killed_hosts[0]
    killed = {c.name for c in coordinators if c.host.name == host}
    after = [at for c in coordinators for at, victim in c.takeovers
             if victim in killed and at / 1e6 >= kill_s]
    if not after:
        return float("nan")
    return min(after) / 1e3 - kill_s * 1e3


def _txn_failover_trial(scale: float, seed: int):
    """One transactional run whose busiest-site coordinator HOST dies with
    2PC in flight; returns (failover ms, result, nemesis)."""
    spec = txn_spec(scale, seed, num_shards=2, cross_shard_ratio=0.6)
    cluster = TxnCluster(spec)
    nemesis = Nemesis(cluster, seed=seed, host_down_s=0.4 * spec.duration_s)
    nemesis.coordinator_host_kill_at(0.45 * spec.duration_s, role="txn")
    result = cluster.run()
    latency_ms = _host_kill_takeover_ms(nemesis, cluster.coordinators)
    return latency_ms, result, nemesis


def _reshard_failover_trial(scale: float, seed: int):
    """One live 2->4 reshard whose lease-holding driver's host dies
    mid-plan (donor leaders are crashed first so the plan is still in
    flight); returns (failover ms, result, nemesis)."""
    spec = reshard_spec(scale, seed)
    spec.duration_s += 4.0  # room to finish the stretched migration
    cluster = ShardedCluster(spec)
    nemesis = Nemesis(cluster, seed=seed, leader_down_s=1.0,
                      host_down_s=0.35 * spec.duration_s)
    nemesis.leader_kill_at(spec.reshard_at_s + 0.1, shard=0)
    nemesis.leader_kill_at(spec.reshard_at_s + 0.1, shard=1)
    nemesis.coordinator_host_kill_at(spec.reshard_at_s + 1.6, role="reshard")
    result = run_reshard_experiment(cluster)
    latency_ms = _host_kill_takeover_ms(nemesis,
                                        cluster.coordinator.coordinators)
    return latency_ms, result, nemesis


def coordinator_failover(scale: float = 1.0,
                         seeds: Tuple[int, ...] = (1, 2, 3),
                         ) -> Tuple[FigureTable, Dict[str, object]]:
    """The control-plane failover figure: kill the MACHINE under each
    plane's active coordinator mid-flight and measure how fast a hot
    standby takes over through the control journal.

    Per seed, two trials: (1) a 60 %-cross-shard transactional run whose
    coordinator host dies with 2PC in flight — a peer must fence and
    sweep it within milliseconds of lease expiry; (2) a live 2->4 reshard
    whose lease-holding driver's host dies mid-plan — a standby claims
    the role and resumes from the journaled cursor.  The machines stay
    dark for seconds, far longer than any measured failover, so
    completion proves the takeover, not the restart.  Seeds where the
    kill also lands on the control-log LEADER's host pay one extra
    election — that regime shows up as the slow tail of the sweep."""
    table = FigureTable(
        figure="Coordinator-failover",
        title="Control-plane failover under machine kills (raft): "
              "the active coordinator's host dies, a hot standby takes "
              "over through the replicated decision log",
        columns=["seed", "txn failover (ms)", "txn safe",
                 "reshard failover (ms)", "reshard done + safe"],
    )
    txn_ms: List[float] = []
    reshard_ms: List[float] = []
    txn_results: List[TxnResult] = []
    reshard_results: List[ReshardResult] = []
    for seed in seeds:
        t_ms, t_result, t_nemesis = _txn_failover_trial(scale, seed)
        r_ms, r_result, r_nemesis = _reshard_failover_trial(scale, seed)
        txn_ms.append(t_ms)
        reshard_ms.append(r_ms)
        txn_results.append(t_result)
        reshard_results.append(r_result)
        table.add_row(seed, t_ms, t_result.describe(), r_ms,
                      r_result.describe() if r_result.reshard_completed
                      else "NO")
        for at_s, what in t_nemesis.log:
            if "host_kill" in what:
                table.notes.append(f"seed {seed} txn t={at_s:.2f}s {what}")
        for at_s, what in r_nemesis.log:
            if "host_kill" in what:
                table.notes.append(f"seed {seed} reshard t={at_s:.2f}s {what}")
    med = lambda xs: sorted(xs)[len(xs) // 2]  # noqa: E731
    table.notes.append(
        f"median failover: txn {med(txn_ms):.0f} ms, reshard "
        f"{med(reshard_ms):.0f} ms (lease expiry 320 ms + one committed "
        f"take/claim record); the slow tail is a kill that also took the "
        f"control-log leader's host — one election more")
    table.notes.append(
        f"txn failovers {[r.failovers for r in txn_results]}, reshard "
        f"owner takeovers {[r.failovers for r in reshard_results]} — every "
        f"run failed over, none waited out the machine restart")
    summary = {"txn_failover_ms": txn_ms, "reshard_failover_ms": reshard_ms,
               "txn_results": txn_results, "reshard_results": reshard_results}
    return table, summary


def txn_figures(scale: float = 1.0, seed: int = 1,
                shard_counts: Tuple[int, ...] = (1, 2, 4),
                cross_ratios: Tuple[float, ...] = (0.0, 0.1, 0.5)) -> str:
    """The full `txn` CLI figure: the scaling sweep plus the faulted run."""
    scaling = txn_scaling(scale, seed, shard_counts=shard_counts,
                          cross_ratios=cross_ratios)
    faults, _result = txn_faults(scale, seed,
                                 num_shards=max(shard_counts),
                                 cross_shard_ratio=max(cross_ratios))
    return scaling.render() + "\n\n" + faults.render()
