#!/usr/bin/env python3
"""`ledger`: the two-clock benchmark over the protocol family.

    python benchmarks/ledger/run.py                      every workload
    python benchmarks/ledger/run.py --out FILE           ... and keep the result
    python benchmarks/ledger/run.py compare A.json B.json
    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the one `BENCHMARK.json` names: one workload for about S
seconds, the result as one JSON object on the last line of stdout.

Run protocol, both forms.  Every repeat is one child process
(`PYTHONHASHSEED=0`, one at a time), so heap state and `ru_maxrss` are per
repeat.  Per workload: one untimed warm-up child under `PYTHONHASHSEED=7`
(it fills the OS and bytecode caches, and its simulated results must equal
everyone else's), then timed repeats with checker and tracing off, each
followed by two children that only set up, then — full form and
`--trace 1` — traced + checked passes.  The full form interleaves the timed
repeats round-robin across workloads.  Host-clock values are medians over
the timed repeats; simulated-clock values must be bit-identical in every
child of a workload, or the benchmark fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no program to measure under {ROOT / 'src'}")
for entry in (str(ROOT / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from ledger.measure import run_once  # noqa: E402
from ledger.trace import LAYERS  # noqa: E402
from ledger.workloads import (  # noqa: E402
    BY_NAME, COOLDOWN_S, LEADER_DOWN_S, WARMUP_S, WORKLOADS, delay_model)

OUT_DIR = HERE / "out"
FULL_REPEATS = 7
MIN_REPEATS = 3
SETUP_EXTRA = 2
WARMUP_HASHSEED = "7"


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str
    better: str
    # How far the median may worsen, as a share of the base, between two
    # result files of the SAME seed (`compare`).  Simulated metrics repeat
    # exactly for a seed, hence the tight bounds; `BENCHMARK.json` carries
    # looser ones for runs that differ in seed.
    bound: float


END_TO_END = [
    Metric("setup_s", "s", "host", "lower", 0.10),
    Metric("host_us_per_op", "us/op", "host", "lower", 0.10),
    Metric("peak_rss_mb", "MB", "host", "lower", 0.10),
    Metric("sim_ops_per_s", "ops/s", "sim", "higher", 0.02),
    Metric("sim_commit_p50_ms", "ms", "sim", "lower", 0.02),
    Metric("sim_commit_p99_ms", "ms", "sim", "lower", 0.02),
    Metric("sim_unavailable_ms", "ms", "sim", "lower", 0.02),
    Metric("failed_ops_share", "ratio", "sim", "lower", 0.0),
    Metric("safety_violations", "count", "sim", "lower", 0.0),
]
HOST_METRICS = ("setup_s", "host_us_per_op", "peak_rss_mb")


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, scale: float, kind: str = "timed",
          hashseed: str = "0") -> Dict[str, Any]:
    """One run in a fresh interpreter; its result dict.  `kind` is "timed",
    "traced" (and checked), or "setup" (stop once the cluster is built)."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    command = [sys.executable, str(HERE / "run.py"), "child",
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--kind", kind]
    started = time.perf_counter()
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"child {workload} (seed {seed}) crashed with code "
            f"{done.returncode}:\n{done.stderr[-4000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def timed_repeat(workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """One timed child, then `SETUP_EXTRA` children that only set up:
    `setup_s` is a fifth of a second of CPU, and its quartiles over one
    sample per repeat are its extremes."""
    started = time.perf_counter()
    run = spawn(workload, seed, scale)
    run["setups"] = [run["host"]["setup_s"]] + [
        spawn(workload, seed, scale, kind="setup")["host"]["setup_s"]
        for _ in range(SETUP_EXTRA)]
    run["wall_s"] = time.perf_counter() - started
    return run


def child_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py child")
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--kind", required=True,
                        choices=("timed", "traced", "setup"))
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.scale,
                      traced=args.kind == "traced", out_dir=OUT_DIR,
                      setup_only=args.kind == "setup")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def stat(values: Sequence[float]) -> Dict[str, Any]:
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"median": statistics.median(values), "min": min(values),
            "iqr": iqr, "n": len(values), "values": list(values)}


def first_difference(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    for key in sorted(set(a) | set(b)):
        if a.get(key) == b.get(key):
            continue
        if isinstance(a.get(key), dict) and isinstance(b.get(key), dict):
            return first_difference(a[key], b[key])
        return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return None


def summarize(name: str, warm: Dict[str, Any], timed: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians, the determinism self-check and the ledger of one workload."""
    reference = timed[0]["exact"]
    problems: List[str] = []
    others = ([(f"PYTHONHASHSEED={WARMUP_HASHSEED} warm-up", warm)]
              + [(f"repeat {i}", run) for i, run in enumerate(timed[1:], 2)]
              + [(f"traced pass {i}", run) for i, run in enumerate(traced, 1)])
    for label, run in others:
        difference = first_difference(reference, run["exact"])
        if difference is not None:
            problems.append(f"determinism: {label} differs from repeat 1 "
                            f"in {difference}")

    end_to_end: Dict[str, Any] = {}
    for metric in END_TO_END:
        if metric.name == "setup_s":
            # A run taken in-process (the smoke test) has its own set-up only.
            values = [s for run in timed
                      for s in run.get("setups", [run["host"]["setup_s"]])]
        elif metric.name in HOST_METRICS:
            values = [run["host"][metric.name] for run in timed]
        elif metric.name == "safety_violations":
            if not traced:
                continue
            values = [max(run["traced"]["safety_violations"]
                          for run in traced)]
        else:
            values = [reference["end_to_end"][metric.name]]
        end_to_end[metric.name] = dict(stat(values), unit=metric.unit)

    host_run = stat([run["host"]["host_run_s"] for run in timed])
    per_layer: Dict[str, float] = dict(reference["per_layer"])
    per_layer["bench.host_run_s"] = host_run["median"]
    per_layer["bench.host_run_iqr_share"] = (
        host_run["iqr"] / host_run["median"])
    per_layer["bench.sim_s_per_host_s"] = (
        timed[0]["sim_duration_s"] / host_run["median"])
    per_layer["bench.calibration_ops_per_s"] = statistics.median(
        run["host"]["calibration_ops_per_s"] for run in timed)
    if traced:
        for key in traced[0]["traced"]["per_layer"]:
            per_layer[key] = statistics.median(
                run["traced"]["per_layer"][key] for run in traced)
        # The traced pass also runs the checker; its own time is not
        # tracing overhead.
        per_layer["bench.trace_overhead_ratio"] = statistics.median(
            run["host"]["host_run_s"]
            * (1 - run["traced"]["per_layer"]["kvstore.checker.self_share"])
            for run in traced) / host_run["median"]
        violations = [v for run in traced for v in run["traced"]["violations"]]
        if violations:
            problems.append(f"safety: {violations[0]}")

    if reference["failed"] and BY_NAME[name].fault_at is None:
        problems.append(f"{reference['failed']} of {reference['attempted']} "
                        f"operations failed on a fault-free workload")
    return {
        "workload": name, "why": BY_NAME[name].why,
        "seed": timed[0]["seed"], "scale": timed[0]["scale"],
        "sim_duration_s": timed[0]["sim_duration_s"],
        "attempted": reference["attempted"], "failed": reference["failed"],
        "repeats": len(timed), "traced_passes": len(traced),
        "correct": not problems, "problems": problems,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def lookup(result: Dict[str, Any], name: str) -> float:
    if name in result["end_to_end"]:
        return result["end_to_end"][name]["median"]
    return result["per_layer"][name]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def header() -> str:
    return "\n".join([
        "ledger: host-us per committed op and simulated commit latency, "
        "five workloads",
        f"  injected delays: {delay_model()}",
        f"  window: {WARMUP_S:.0f} s warm-up, {COOLDOWN_S:.0f} s cool-down "
        f"(the drain grace); leader down {LEADER_DOWN_S:.0f} s on the fault "
        f"workload",
        "  open-loop generator lateness: 0 ms (arrivals are simulated-clock "
        "events)",
    ])


def render(results: Dict[str, Dict[str, Any]]) -> str:
    units = {entry["name"]: entry["unit"]
             for entry in benchmark_spec()["per_layer"]}
    lines: List[str] = []
    for name, result in results.items():
        lines.append("")
        lines.append(
            f"== {name}: {result['repeats']} timed repeats, "
            f"{result['traced_passes']} traced+checked, seed "
            f"{result['seed']}, {result['sim_duration_s']:.1f} sim-s, "
            f"p50/p99 over {result['per_layer']['bench.ops_committed']} "
            f"acks ==")
        lines.append(f"  {'end-to-end metric':<22}{'unit':<8}{'clock':<6}"
                     f"{'median':>12}{'min':>12}{'IQR':>10}")
        for metric in END_TO_END:
            row = result["end_to_end"].get(metric.name)
            if row is None:
                continue
            lines.append(
                f"  {metric.name:<22}{metric.unit:<8}{metric.clock:<6}"
                f"{_fmt(row['median']):>12}{_fmt(row['min']):>12}"
                f"{_fmt(row['iqr']):>10}")
        for key in sorted(result["per_layer"]):
            if not key.endswith((".calls_per_op", ".self_us_per_op",
                                 ".self_share")):
                lines.append(f"  {key:<40}{units[key]:<8}"
                             f"{_fmt(result['per_layer'][key]):>12}")
        for problem in result["problems"]:
            lines.append(f"  FAILED  {problem}")
    traced = {name: result for name, result in results.items()
              if result["traced_passes"]}
    if traced:
        lines.append("")
        lines.append("== host ledger (traced pass): self us/op, share of "
                     "cluster.run(), calls/op ==")
        lines.append("  " + f"{'layer':<18}" + "".join(
            f"{name[:24]:>26}" for name in traced))
        for layer in LAYERS:
            cells = []
            for result in traced.values():
                per_layer = result["per_layer"]
                cells.append(
                    f"{_fmt(per_layer[f'{layer}.self_us_per_op']):>9}"
                    f"{per_layer[f'{layer}.self_share'] * 100:>6.1f}%"
                    f"{_fmt(per_layer[f'{layer}.calls_per_op']):>10}")
            lines.append("  " + f"{layer:<18}" + "".join(cells))
        lines.append("  " + f"{'(residual)':<18}" + "".join(
            f"{'':>9}{r['per_layer']['bench.ledger_residual_share'] * 100:>6.1f}%"
            f"{'':>10}" for r in traced.values()))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The two run forms
# ---------------------------------------------------------------------------


def _progress(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def run_full(names: Sequence[str], seed: int,
             scale: float) -> Dict[str, Dict[str, Any]]:
    warm = {}
    for name in names:
        _progress(f"[warm-up] {name}")
        warm[name] = spawn(name, seed, scale, hashseed=WARMUP_HASHSEED)
    timed: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for i in range(FULL_REPEATS):
        for name in names:
            _progress(f"[repeat {i + 1}/{FULL_REPEATS}] {name}")
            timed[name].append(timed_repeat(name, seed, scale))
    results = {}
    for name in names:
        _progress(f"[traced] {name}")
        traced = [spawn(name, seed, scale, kind="traced")]
        results[name] = summarize(name, warm[name], timed[name], traced)
    return results


def run_budgeted(name: str, seed: int, scale: float, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """One workload for about `seconds`: the warm-up, then timed repeats
    until the budget is spent (`--trace 0`), or `MIN_REPEATS` of them and
    then traced passes until it is (`--trace 1`)."""
    started = time.perf_counter()

    def fits(previous: Dict[str, Any]) -> bool:
        elapsed = time.perf_counter() - started
        return elapsed + previous["wall_s"] <= seconds

    warm = spawn(name, seed, scale, hashseed=WARMUP_HASHSEED)
    timed = [timed_repeat(name, seed, scale)]
    while len(timed) < MIN_REPEATS or (not trace and fits(timed[-1])):
        timed.append(timed_repeat(name, seed, scale))
    traced: List[Dict[str, Any]] = []
    if trace:
        traced.append(spawn(name, seed, scale, kind="traced"))
        while fits(traced[-1]):
            traced.append(spawn(name, seed, scale, kind="traced"))
    return summarize(name, warm, timed, traced)


def driver_line(result: Dict[str, Any], trace: bool) -> str:
    """The one-line result `BENCHMARK.json`'s contract asks for."""
    spec = benchmark_spec()
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value = lookup(result, entry["name"])
        if not math.isfinite(value):
            raise ValueError(f"{entry['name']} is not finite: {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def verdict(metric: Metric, base: Dict[str, Any],
            new: Dict[str, Any]) -> str:
    a, b = base["median"], new["median"]
    worse_by = (b - a) if metric.better == "lower" else (a - b)
    allowed = metric.bound * abs(a)
    # A spread wider than the bound cannot show a change of the bound's
    # size, nor its absence.  Simulated metrics repeat exactly (IQR 0).
    if max(base["iqr"], new["iqr"]) > allowed:
        return "unresolved"
    if abs(worse_by) <= allowed:
        return "same"
    return "worse" if worse_by > 0 else "better"


def compare(path_a: str, path_b: str) -> int:
    base = json.loads(Path(path_a).read_text())["workloads"]
    new = json.loads(Path(path_b).read_text())["workloads"]
    print(f"base A = {path_a}\nnew  B = {path_b}")
    print(f"{'workload':<24}{'metric':<22}{'A median':>12}{'A IQR':>10}"
          f"{'B median':>12}{'B IQR':>10}{'B/A':>9}  verdict")
    worse = 0
    for name in base:
        if name not in new:
            continue
        for metric in END_TO_END:
            a = base[name]["end_to_end"].get(metric.name)
            b = new[name]["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            outcome = verdict(metric, a, b)
            worse += outcome == "worse"
            ratio = (f"{b['median'] / a['median']:.4f}" if a["median"]
                     else "n/a")
            print(f"{name:<24}{metric.name:<22}{_fmt(a['median']):>12}"
                  f"{_fmt(a['iqr']):>10}{_fmt(b['median']):>12}"
                  f"{_fmt(b['iqr']):>10}{ratio:>9}  {outcome}")
    print(f"{worse} worse (bounds: host 10%, simulated 2%, failures and "
          f"violations +0; ratios are B over A)")
    speed = statistics.median(
        new[name]["per_layer"]["bench.calibration_ops_per_s"]
        / base[name]["per_layer"]["bench.calibration_ops_per_s"]
        for name in base if name in new)
    if abs(speed - 1) > 0.05:
        print(f"WARNING: the machine ran {speed:.2f}x as fast for B as for A "
              f"(bench.calibration_ops_per_s): host-clock rows compare "
              f"machines, not code; re-run A and B back to back")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "child":
        return child_main(argv[1:])
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run this workload only, for --seconds")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only input that changes generated load")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="time budget of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload runs: 1 adds the traced+checked pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="smoke tests only; never for recorded numbers")
    parser.add_argument("--out", help="write the machine-readable result "
                        "`compare` reads (full form)")
    args = parser.parse_args(argv)

    if args.workload is not None:
        result = run_budgeted(args.workload, args.seed, args.scale,
                              args.seconds, bool(args.trace))
        print(header())
        print(render({args.workload: result}))
        print(driver_line(result, bool(args.trace)))
        return 0 if result["correct"] else 1

    started = time.perf_counter()
    results = run_full([w.name for w in WORKLOADS], args.seed, args.scale)
    print(header())
    print(render(results))
    print(f"\nwhole benchmark: {time.perf_counter() - started:.0f} s wall")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "benchmark": "ledger", "seed": args.seed, "scale": args.scale,
            "delay_model": delay_model(), "workloads": results}, indent=1)
            + "\n")
    failed = [name for name, result in results.items()
              if not result["correct"]]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
