"""One run of one workload: build, run, and read every metric off it.

`run_once` is the body of a child process (and of the in-process smoke
test).  It returns a plain dict:

* `host`   — host-clock readings of this run (CPU seconds, RSS);
* `exact`  — simulated-clock end-to-end metrics, and per-layer counters
  read from public attributes; bit-identical for a (workload, seed,
  scale) whatever the pass or `PYTHONHASHSEED` — the determinism
  self-check compares this whole dict across every child of a workload;
* `traced` — traced + checked pass only: the per-layer host ledger and
  the counters that need a wrapper to observe (`per_layer`), and the
  checker verdicts.
"""

from __future__ import annotations

import gc
import resource
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench.perf import calibrate
from repro.metrics.stats import percentile
from repro.sim.units import sec

from ledger.trace import LAYERS, TRACER, Tracer
from ledger.workloads import (
    BY_NAME, COOLDOWN_S, WARMUP_S, Workload, replica_groups)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _max_term(groups) -> int:
    return sum(max(getattr(r, "current_term", 0) for r in group)
               for group in groups)


def _hosts(cluster) -> set:
    network = cluster.network
    return {network.node(name).host for name in network.node_names}


def _safety_violations(workload: Workload, cluster, result) -> List[str]:
    """Every checker verdict of the checked pass, as strings."""
    if workload.transactional:
        in_flight = sum(len(c.pending_ops()) for c in cluster.clients)
        found = list(result.serializability_violations)
        for shard, violations in sorted(result.prefix_violations.items()):
            found += [f"g{shard}: {v}" for v in violations]
        for what, count in (
                ("acks lost", result.acks_lost),
                ("acks duplicated", result.acks_duplicated),
                ("duplicate executions", result.duplicate_executions),
                # Locks of transactions still in flight at the end are
                # legitimate; more than that are orphans.
                ("orphan locks", max(0, result.locks_left - in_flight))):
            if count:
                found.append(f"{count} {what}")
        return found
    violations = result.violations
    if isinstance(violations, dict):
        return [f"g{shard}: {v}" for shard, found in sorted(violations.items())
                for v in found]
    return list(violations)


def run_once(name: str, seed: int, scale: float = 1.0, traced: bool = False,
             out_dir: Optional[Path] = None,
             setup_only: bool = False) -> Dict[str, Any]:
    """`setup_only` stops once the cluster is built: one more sample of
    `setup_s` for the price of an interpreter start."""
    workload = BY_NAME[name]
    size = workload.sizing(seed, scale)
    window = (sec(WARMUP_S), sec(size.duration_s - COOLDOWN_S))
    tracer = Tracer(window) if traced else None
    if tracer is None:
        return _run(workload, size, window, None, out_dir, setup_only)
    with tracer.installed():
        return _run(workload, size, window, tracer, out_dir, setup_only)


def _run(workload: Workload, size, window, tracer: Optional[Tracer],
         out_dir: Optional[Path], setup_only: bool) -> Dict[str, Any]:
    window_start, window_end = window
    cluster = workload.build(size, tracer is not None)
    groups = replica_groups(cluster)
    clients = cluster.clients
    terms_before = _max_term(groups)
    attempted_at_close: Dict[str, int] = {}

    def close_window() -> None:
        # Inserted before any same-instant event, so it counts exactly the
        # operations issued strictly before the window closes.
        for client in clients:
            attempted_at_close[client.name] = (
                client.txns_issued if workload.transactional
                else client.submitted)

    cluster.sim.schedule_at(window_end, close_window)
    if tracer is not None:
        tracer.groups = groups
        cluster.sim.profiler = tracer
    setup_s = time.process_time()
    if setup_only:
        return {"host": {"setup_s": setup_s}}

    gc.collect()
    wall0, cpu0 = time.perf_counter_ns(), time.process_time()
    result = cluster.run()
    host_run_s = time.process_time() - cpu0
    run_ns = time.perf_counter_ns() - wall0

    metrics = cluster.metrics
    records = metrics.records
    latency = metrics.completion_latency_summary_ms(window_start, window_end)
    ops = latency["count"]

    # Failed: due before the window closed and not acked OK by the end of
    # the run (the cool-down is the drain grace), plus refused, lost or
    # duplicated acks.
    acked_by_client = Counter(r.client for r in records
                              if r.start < window_end)
    attempted = sum(attempted_at_close.values())
    unacked = sum(max(0, count - acked_by_client[client])
                  for client, count in attempted_at_close.items())
    completed = sum(c.txns_committed if workload.transactional
                    else c.completed for c in clients)
    failed = unacked + metrics.failures + abs(len(records) - completed)

    unavailable_ms = 0.0
    if workload.fault_at is not None:
        unavailable_ms = longest_ack_gap_ms(
            sec(workload.fault_at * size.duration_s),
            [r.end for r in records], window_end)

    sim = cluster.sim
    network = cluster.network
    counters = metrics.counters
    replicas = [replica for group in groups for replica in group]
    coordinators = getattr(cluster, "coordinators", [])
    commits_2pc = sum(c.commits for c in coordinators)
    beats = counters.get("coalesce_beacon_beats", 0)
    carried = counters.get("coalesce_messages", 0)
    envelopes = counters.get("coalesce_envelopes", 0)
    issued = sum(getattr(c, "txns_issued", 0) for c in clients)

    end_to_end = {
        "sim_ops_per_s": ops / size.window_s,
        "sim_commit_p50_ms": latency["p50"],
        "sim_commit_p99_ms": latency["p99"],
        "sim_unavailable_ms": unavailable_ms,
        "failed_ops_share": _ratio(failed, attempted),
    }
    per_layer = {
        "bench.ops_committed": ops,
        "sim.events.per_op": _ratio(sim.events_processed, ops),
        "sim.network.msgs_per_op": _ratio(network.messages_sent, ops),
        "sim.network.bytes_per_op": _ratio(network.bytes_sent, ops),
        "sim.network.dropped_share": _ratio(network.messages_dropped,
                                            network.messages_sent),
        "sim.node.max_cpu_util": max(
            host.cpu_busy_us for host in _hosts(cluster)) / sim.now,
        "protocols.local_read_share": metrics.local_read_fraction(
            window_start, window_end),
        "protocols.elections": _max_term(groups) - terms_before,
        "protocols.log_entries_per_op": _ratio(
            sum(max(r.last_applied for r in group) + 1 for group in groups),
            ops),
        "protocols.mux.msgs_per_envelope": _ratio(carried + beats, envelopes),
        "protocols.mux.envelopes_per_op": _ratio(envelopes, ops),
        "protocols.mux.beats_merged_share": _ratio(beats, carried + beats),
        "kvstore.store.applies_per_op": _ratio(
            sum(r.store.applied_count for r in replicas), ops),
        "workload.session.outstanding_at_end": sum(
            c.outstanding for c in clients),
        "shard.router.redirects_per_op": _ratio(
            sum(getattr(c, "redirects", 0) for c in clients), ops),
        "shard.txn.cross_shard_share": _ratio(
            sum(getattr(c, "cross_shard_txns", 0) for c in clients), issued),
        "shard.txn.aborts_per_commit": _ratio(
            sum(c.attempt_aborts for c in coordinators), commits_2pc),
        "shard.txn.waits_per_commit": _ratio(
            counters.get("txn_waits", 0), commits_2pc),
        "shard.txn.recoveries": sum(c.recoveries for c in coordinators),
        "shard.control.journal_per_op": _ratio(
            sum(c.stable.get("ctl_seq", 0) for c in coordinators), ops),
        "shard.control.failovers": sum(c.failovers for c in coordinators),
    }
    out: Dict[str, Any] = {
        "workload": workload.name, "seed": size.seed, "scale": size.scale,
        "sim_duration_s": size.duration_s,
        "host": {
            "setup_s": setup_s,
            "host_run_s": host_run_s,
            "host_us_per_op": _ratio(host_run_s * 1e6, ops),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "exact": {"end_to_end": end_to_end, "per_layer": per_layer,
                  "attempted": attempted, "failed": failed},
    }
    if tracer is None:
        out["host"]["calibration_ops_per_s"] = calibrate()
        return out

    violations = _safety_violations(workload, cluster, result)
    totals = tracer.layer_totals()
    traced_per_layer = {}
    for layer in LAYERS:
        traced_per_layer[f"{layer}.calls_per_op"] = _ratio(
            totals[layer]["calls"], ops)
        traced_per_layer[f"{layer}.self_us_per_op"] = _ratio(
            totals[layer]["self_ns"] / 1e3, ops)
        traced_per_layer[f"{layer}.self_share"] = _ratio(
            totals[layer]["self_ns"], run_ns)
    layered_ns = sum(totals[layer]["self_ns"] for layer in LAYERS + (TRACER,))
    schedules = tracer.cells[("sim.events", "schedule")][0]
    admitted = sum(c.seq + getattr(c, "txn_seq", 0) for c in clients)
    redirects = sum(getattr(c, "redirects", 0) for c in clients)
    traced_per_layer.update({
        "bench.trace_self_share": _ratio(totals[TRACER]["self_ns"], run_ns),
        "bench.ledger_residual_share": _ratio(run_ns - layered_ns, run_ns),
        "sim.events.timer_cancel_share": _ratio(tracer.counts["cancels"],
                                                schedules),
        "sim.network.egress_wait_p99_ms": _p99_ms(tracer.egress_wait_us),
        "sim.node.cpu_wait_p99_ms": _p99_ms(tracer.cpu_wait_us),
        "protocols.follower_lag_max": tracer.follower_lag_max,
        "kvstore.store.lock_conflicts_per_op": _ratio(
            tracer.counts["lock_conflicts"], ops),
        # Every request a client put on the wire beyond the first send of
        # each admitted operation and the redirects it followed.
        "workload.session.retries_per_op": _ratio(
            tracer.counts["client_sends"] - admitted - redirects, ops),
    })
    out["traced"] = {
        "per_layer": traced_per_layer,
        "safety_violations": len(violations),
        "violations": violations[:5],
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{workload.name}.spans.jsonl", {
            "workload": workload.name, "seed": size.seed,
            "scale": size.scale, "run_ns": run_ns, "ops": ops,
            "window_us": list(window)})
    return out


def longest_ack_gap_ms(fault_us: int, acks_us: List[int],
                       window_end_us: int) -> float:
    """Longest gap between consecutive acks from the fault to window end.
    The window's end closes the last gap: acks that stop and never resume
    read as an outage up to there."""
    points = ([fault_us]
              + sorted(t for t in acks_us if fault_us <= t <= window_end_us)
              + [window_end_us])
    return max(b - a for a, b in zip(points, points[1:])) / 1000.0


def _p99_ms(samples_us: List[int]) -> float:
    return percentile(samples_us, 99) / 1000.0 if samples_us else 0.0
