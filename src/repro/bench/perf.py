"""Simulator-core microbenchmark (the `perf` figure).

Measures how fast the event loop pushes simulated work through four
legs, from the refactored core outward:

* **core-churn** — the simulator core alone, at figure scale: hundreds
  of heartbeat-driven nodes, replication fan-out delivery chains, and —
  dominating the timer traffic, as in every leader-based figure — an
  election-timer reset (cancel + re-arm 150 ms out) on every delivery.
  No protocol or network code runs: this is the direct before/after of
  the timer-wheel/batched-dispatch refactor, and the leg that dominates
  the aggregate (it processes ~10x the events of the cluster legs).
* **single-group** — one Raft group, five regions, pipelined closed-loop
  clients: the AppendEntries/reply replication fast path plus client
  request handling (the Figure 9c/10a shape).
* **hosted-mux** — four colocated shard groups on one machine per site
  with cross-group coalescing on: the `Host` CPU queue, `GroupMux`
  envelope, and beacon paths (the `coalesce` figure shape).
* **sharded-txn** — the same colocated four-shard topology under
  multi-key transactional load with a 2PC cross-shard fraction: the
  coordinator, lock-table, and control-log paths stacked on top of
  everything the hosted-mux leg exercises (the `txn` figure shape).

The cluster legs carry full protocol-handler bodies, so their speedup is
Amdahl-bounded; the core leg isolates the refactored subsystem.

Reported per leg and in aggregate:

* `events_per_sec` — simulator callbacks dispatched per wall-clock second
  (the headline number; the refactor target is events/sec, not ops/sec,
  because every layer above the simulator is paced by it);
* `sim_s_per_wall_s` — simulated seconds advanced per wall-clock second
  (how much faster than real time the deployment runs);
* `ops_per_sec_wall` — client operations completed per wall second.

Wall-clock numbers are machine-dependent, so the report also carries a
`calibration` score (a fixed pure-Python workload timed on the same
machine) and `events_per_sec_normalized = events_per_sec / calibration`.
Regression checks between machines (the CI perf job) compare the
normalized number; same-machine before/after comparisons use the raw one.

`python -m repro.bench perf` (`perf_figure`) runs all legs, prints the
figure, and writes `BENCH_perf.json` (see `--perf-out`); with
`--perf-baseline FILE` it also compares against a committed baseline and,
with `--perf-fail-threshold R`, exits non-zero on a worse-than-R
regression — the CI perf job's contract.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.harness import Cluster, ExperimentSpec
from repro.obs import SimProfiler
from repro.shard.cluster import ShardedCluster, ShardedSpec
from repro.shard.txn import TxnCluster, TxnSpec
from repro.sim.events import Simulator
from repro.sim.units import ms
from repro.workload.ycsb import WorkloadConfig


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def calibrate(iterations: int = 200_000) -> float:
    """Machine-speed score: iterations/second of a fixed pure-Python
    mix (dict churn + integer heap math), same flavour of work as the
    simulator hot path.  Used to normalize events/sec across machines."""
    start = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(iterations):
        table[i & 1023] = acc
        acc = (acc + i * 31) & 0xFFFFFFFF
        if i & 7 == 0:
            table.pop(i & 1023, None)
    elapsed = time.perf_counter() - start
    return iterations / elapsed if elapsed > 0 else float("inf")


# ---------------------------------------------------------------------------
# The four legs
# ---------------------------------------------------------------------------


def run_core_churn(scale: float = 1.0, seed: int = 0,
                   duration_s: float = 2.0,
                   profile: bool = False) -> Dict[str, Any]:
    """Simulator core alone, under the figure-shaped event mix: periodic
    heartbeats, small-delay replication fan-out chains, and an election
    timer reset (cancel + re-arm far in the future) on every delivery.

    The reset-per-delivery is the load-bearing part: leader-based
    protocols cancel and re-arm a ~150 ms timer on every heartbeat or
    append a follower receives, so almost every far-future timer dies
    unfired.  A queue design that lets those tombstones pollute the hot
    path degrades superlinearly with node count — exactly what the timer
    wheel plus compaction is for.

    Pure `Simulator` API (schedule / Event.cancel / run), so the same
    function measures any tree that has the simulator at all.
    """
    sim = Simulator()
    nodes = _scaled(480, scale)
    heartbeat = 5_000            # us between a node's beats
    election = 150_000           # far-future timer horizon
    fanout = 3                   # deliveries spawned per beat
    pending: List[Any] = [None] * nodes
    delivered = [0] * nodes
    schedule = sim.schedule
    jitter = seed % 977          # deterministic per-seed phase shift

    def expire(i: int) -> None:
        delivered[i] += 1

    def deliver(i: int, hop: int) -> None:
        delivered[i] += 1
        event = pending[i]
        if event is not None:
            event.cancel()
        pending[i] = schedule(election + (i % 7) * 1_000 + jitter, expire, i)
        if hop:
            schedule(500 + (i % 16) * 250, deliver,
                     (i * 7 + hop) % nodes, hop - 1)

    def beat(i: int) -> None:
        event = pending[i]
        if event is not None:
            event.cancel()
        pending[i] = schedule(election + (i % 7) * 1_000 + jitter, expire, i)
        schedule(heartbeat, beat, i)
        for p in range(fanout):
            schedule(500 + ((i + p) % 16) * 250, deliver,
                     (i + p + 1) % nodes, 2)

    for i in range(nodes):
        schedule(i % heartbeat, beat, i)

    profiler = None
    if profile:
        profiler = SimProfiler().attach(sim)
    start = time.perf_counter()
    sim.run(until=int(duration_s * 1_000_000))
    wall_s = time.perf_counter() - start
    events = sim.events_processed
    leg: Dict[str, Any] = {
        "sim_s": duration_s,
        "wall_s": round(wall_s, 4),
        "events": events,
        "completed_ops": sum(delivered),
        "events_per_sec": round(events / wall_s, 1) if wall_s else 0.0,
        "sim_s_per_wall_s": round(duration_s / wall_s, 3) if wall_s else 0.0,
        "ops_per_sec_wall": round(sum(delivered) / wall_s, 1) if wall_s else 0.0,
    }
    if profiler is not None:
        leg["profile"] = [
            {"kind": row["kind"], "count": row["count"],
             "wall_ms": round(row["wall_s"] * 1e3, 2),
             "share": round(row["share"], 4)}
            for row in profiler.report(top=8)
        ]
        profiler.detach(sim)
    return leg


def single_group_spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    """One Raft group under pipelined closed-loop load (replication path)."""
    return ExperimentSpec(
        protocol="raft",
        clients_per_region=_scaled(40, scale),
        pipeline_depth=4,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                value_size=8),
        duration_s=4.0 * max(scale, 0.25),
        warmup_s=1.0 * max(scale, 0.25),
        cooldown_s=0.5 * max(scale, 0.25),
        seed=seed,
    )


def hosted_mux_spec(scale: float = 1.0, seed: int = 0) -> ShardedSpec:
    """Four colocated groups on one machine per site, coalescing on
    (Host CPU queue + GroupMux envelope/beacon path)."""
    return ShardedSpec(
        protocol="raft",
        num_shards=4,
        placement="colocated",
        clients_per_region=_scaled(40, scale),
        workload=WorkloadConfig(read_fraction=0.1, conflict_rate=0.0,
                                value_size=8),
        duration_s=4.0 * max(scale, 0.25),
        warmup_s=1.0 * max(scale, 0.25),
        cooldown_s=0.5 * max(scale, 0.25),
        seed=seed,
        site_uplink_factor=None,
        hosts_per_site=1,
        coalesce=True,
        coalesce_flush_interval=int(ms(2)),
    )


def sharded_txn_spec(scale: float = 1.0, seed: int = 0) -> TxnSpec:
    """Four colocated groups under multi-key transactional load: one
    quarter of the transactions span two shards (2PC through the
    coordinator), the rest take the single-shard atomic fast path."""
    return TxnSpec(
        protocol="raft",
        num_shards=4,
        placement="colocated",
        clients_per_region=_scaled(24, scale),
        workload=WorkloadConfig(read_fraction=0.1, conflict_rate=0.0,
                                value_size=8),
        duration_s=4.0 * max(scale, 0.25),
        warmup_s=1.0 * max(scale, 0.25),
        cooldown_s=0.5 * max(scale, 0.25),
        seed=seed,
        site_uplink_factor=None,
        hosts_per_site=1,
        coalesce=True,
        coalesce_flush_interval=int(ms(2)),
        txn_size=2,
        cross_shard_ratio=0.25,
    )


def _time_cluster(cluster, duration_s: float,
                  profile: bool = False) -> Dict[str, Any]:
    """Run a built cluster to completion and report wall-clock rates."""
    profiler = None
    if profile:
        profiler = SimProfiler().attach(cluster.sim)
    start = time.perf_counter()
    result = cluster.run()
    wall_s = time.perf_counter() - start
    events = cluster.sim.events_processed
    completed = getattr(result, "completed", None)
    if completed is None:
        # TxnResult counts committed transactions instead.
        completed = getattr(result, "committed", 0)
    leg: Dict[str, Any] = {
        "sim_s": duration_s,
        "wall_s": round(wall_s, 4),
        "events": events,
        "completed_ops": completed,
        "events_per_sec": round(events / wall_s, 1) if wall_s else 0.0,
        "sim_s_per_wall_s": round(duration_s / wall_s, 3) if wall_s else 0.0,
        "ops_per_sec_wall": round(completed / wall_s, 1) if wall_s else 0.0,
    }
    if profiler is not None:
        leg["profile"] = [
            {"kind": row["kind"], "count": row["count"],
             "wall_ms": round(row["wall_s"] * 1e3, 2),
             "share": round(row["share"], 4)}
            for row in profiler.report(top=8)
        ]
        profiler.detach(cluster.sim)
    return leg


def run_perf(scale: float = 1.0, seed: int = 0,
             profile: bool = True) -> Dict[str, Any]:
    """Run all four legs (plus, when `profile`, a second profiled pass of each
    at the same scale — profiled runs are not wall-clock comparable, so
    timing and attribution never share a run)."""
    legs: Dict[str, Any] = {}

    legs["core-churn"] = run_core_churn(scale, seed)
    spec_a = single_group_spec(scale, seed)
    legs["single-group"] = _time_cluster(Cluster(spec_a), spec_a.duration_s)
    spec_b = hosted_mux_spec(scale, seed)
    legs["hosted-mux"] = _time_cluster(ShardedCluster(spec_b),
                                       spec_b.duration_s)
    spec_c = sharded_txn_spec(scale, seed)
    legs["sharded-txn"] = _time_cluster(TxnCluster(spec_c),
                                        spec_c.duration_s)
    if profile:
        legs["core-churn"]["profile"] = run_core_churn(
            scale, seed, profile=True)["profile"]
        for name, spec, builder in (
                ("single-group", single_group_spec(scale, seed), Cluster),
                ("hosted-mux", hosted_mux_spec(scale, seed), ShardedCluster),
                ("sharded-txn", sharded_txn_spec(scale, seed), TxnCluster)):
            profiled = _time_cluster(builder(spec), spec.duration_s,
                                     profile=True)
            legs[name]["profile"] = profiled["profile"]

    total_events = sum(leg["events"] for leg in legs.values())
    total_wall = sum(leg["wall_s"] for leg in legs.values())
    total_sim = sum(leg["sim_s"] for leg in legs.values())
    calibration = calibrate()
    events_per_sec = total_events / total_wall if total_wall else 0.0
    return {
        "figure": "perf",
        "scale": scale,
        "seed": seed,
        "legs": legs,
        "events": total_events,
        "wall_s": round(total_wall, 4),
        "events_per_sec": round(events_per_sec, 1),
        "sim_s_per_wall_s": round(total_sim / total_wall, 3) if total_wall else 0.0,
        "calibration": round(calibration, 1),
        "events_per_sec_normalized": round(events_per_sec / calibration, 4)
        if calibration else 0.0,
    }


# ---------------------------------------------------------------------------
# Reporting / regression checking
# ---------------------------------------------------------------------------


def render_perf(report: Dict[str, Any],
                baseline: Optional[Dict[str, Any]] = None) -> str:
    lines = [
        f"Perf: simulator-core microbenchmark (scale {report['scale']}, "
        f"seed {report['seed']})",
        f"  aggregate: {report['events_per_sec']:,.0f} events/s, "
        f"{report['sim_s_per_wall_s']:.2f} sim-s per wall-s "
        f"({report['events']:,} events in {report['wall_s']:.2f}s wall)",
        f"  calibration: {report['calibration']:,.0f} (normalized "
        f"{report['events_per_sec_normalized']:.3f} events per "
        f"calibration-op)",
    ]
    for name, leg in report["legs"].items():
        lines.append(
            f"  {name}: {leg['events_per_sec']:,.0f} events/s, "
            f"{leg['sim_s_per_wall_s']:.2f} sim-s/wall-s, "
            f"{leg['ops_per_sec_wall']:,.0f} ops/s-wall "
            f"({leg['events']:,} events, {leg['completed_ops']} ops)")
        for row in leg.get("profile", [])[:5]:
            lines.append(
                f"      {row['share'] * 100:5.1f}%  {row['wall_ms']:8.1f} ms  "
                f"{row['count']:>8}x  {row['kind']}")
    if baseline is not None:
        comp = compare_to_baseline(report, baseline)
        lines.append(
            f"  vs baseline ({comp['baseline_label']}): "
            f"{comp['speedup']:.2f}x events/s raw, "
            f"{comp['speedup_normalized']:.2f}x normalized")
        if comp.get("legs"):
            per_leg = ", ".join(f"{name} {ratio:.2f}x"
                                for name, ratio in comp["legs"].items())
            lines.append(f"    per-leg normalized: {per_leg}")
    return "\n".join(lines)


def _headline(report: Dict[str, Any]) -> Dict[str, float]:
    return {"events_per_sec": report["events_per_sec"],
            "events_per_sec_normalized": report["events_per_sec_normalized"]}


def compare_to_baseline(report: Dict[str, Any],
                        baseline: Dict[str, Any]) -> Dict[str, Any]:
    """Speedup of `report` over a baseline BENCH_perf.json payload (either
    a raw report or a committed {pre_refactor, post_refactor} document —
    the newest recorded numbers win)."""
    if "post_refactor" in baseline:
        ref, label = baseline["post_refactor"], "post_refactor"
    elif "current" in baseline:
        ref, label = baseline["current"], "current"
    else:
        ref, label = baseline, "report"
    raw = (report["events_per_sec"] / ref["events_per_sec"]
           if ref.get("events_per_sec") else float("inf"))
    norm = (report["events_per_sec_normalized"]
            / ref["events_per_sec_normalized"]
            if ref.get("events_per_sec_normalized") else raw)
    # Per-leg normalized speedup: raw leg ratio corrected by the two
    # runs' calibration scores (each run's machine-speed score scales its
    # own events/sec, so the ratio of ratios is machine-neutral).  Legs
    # absent from the baseline (newly added) are skipped, not infinite.
    legs: Dict[str, float] = {}
    ref_cal = ref.get("calibration") or 0.0
    rep_cal = report.get("calibration") or 0.0
    ref_legs = ref.get("legs") or {}
    for name, leg in (report.get("legs") or {}).items():
        ref_leg = ref_legs.get(name)
        if not ref_leg or not ref_leg.get("events_per_sec"):
            continue
        ratio = leg["events_per_sec"] / ref_leg["events_per_sec"]
        if ref_cal and rep_cal:
            ratio *= ref_cal / rep_cal
        legs[name] = round(ratio, 3)
    return {"baseline_label": label, "speedup": raw,
            "speedup_normalized": norm, "legs": legs}


def check_regression(report: Dict[str, Any], baseline: Dict[str, Any],
                     threshold: float = 0.30) -> Tuple[bool, str]:
    """CI contract: normalized events/sec must not drop more than
    `threshold` below the committed baseline.  Returns (ok, message)."""
    comp = compare_to_baseline(report, baseline)
    floor = 1.0 - threshold
    ok = comp["speedup_normalized"] >= floor
    message = (
        f"normalized events/sec is {comp['speedup_normalized']:.2f}x the "
        f"committed baseline ({comp['baseline_label']}); regression floor "
        f"is {floor:.2f}x")
    return ok, ("ok: " if ok else "REGRESSION: ") + message


def perf_figure(scale: float = 1.0, seed: int = 0,
                out: Optional[str] = None, baseline: Optional[str] = None,
                fail_threshold: float = 0.30) -> Tuple[str, int]:
    """The `perf` CLI figure: run the legs, write the full report as JSON
    to `out`, and compare against the BENCH_perf.json at `baseline`.
    Returns the rendered text and the exit code (1 = regression)."""
    committed = None
    if baseline is not None:
        with open(baseline) as handle:
            committed = json.load(handle)
    report = run_perf(scale, seed)
    text, code = render_perf(report, committed), 0
    if out is not None:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if committed is not None:
        ok, message = check_regression(report, committed, fail_threshold)
        text, code = f"{text}\n{message}", 0 if ok else 1
    return text, code
