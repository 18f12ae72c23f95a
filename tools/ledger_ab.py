#!/usr/bin/env python3
"""Same-machine interleaved A/B of the ledger benchmark: a git ref against
the working tree.

    tools/ledger_ab.py <git-ref> [--workload W] [--pairs N] [--seed S] [--scale X]

Side A is `<git-ref>`, `git archive`d into a temporary directory; side B is
the tree this file sits in.  Each side runs ITS OWN
`benchmarks/ledger/run.py child --kind timed` — one fresh interpreter per
run under `PYTHONHASHSEED=0`, one at a time — so a change is measured by
the benchmark code it ships with (a gain-claiming change leaves that code
identical on both sides).  After one discarded warm-up per side the pairs
alternate which side goes first.  Per workload it prints, for EVERY
end-to-end metric `BENCHMARK.json` declares (`setup_s`, `host_us_per_op`,
`peak_rss_mb`, `sim_ops_per_s`), each side's value in every run, the median
and quartiles, and the pair wins in that metric's own direction; then
whether the two `exact` dicts (every simulated metric and counter of a
child run) are equal — the first differing key if not, and then the exit
code is 1.

Lives outside `benchmarks/ledger/` because a change that claims a gain
may not edit the benchmark it is judged by.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]


def archive(ref: str, into: Path) -> None:
    """`git archive <ref>` unpacked under `into`."""
    tarball = into.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                    "-o", str(tarball), ref], check=True)
    with tarfile.open(tarball) as tar:
        tar.extractall(into)
    tarball.unlink()


def child(tree: Path, workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """One timed run of `tree`'s own ledger child; its result dict."""
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "ledger" / "run.py"),
         "child", "--workload", workload, "--seed", str(seed),
         "--scale", repr(scale), "--kind", "timed"],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: child {workload} exited "
                           f"{done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def first_difference(a: Any, b: Any, path: str = "") -> Optional[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            found = first_difference(a.get(key), b.get(key), f"{path}/{key}")
            if found is not None:
                return found
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


def fmt(value: float) -> str:
    """Enough digits for the metric's scale (0.301 s, 66.27 MB, 1353.4 us)."""
    if abs(value) < 10:
        return f"{value:.3f}"
    return f"{value:.2f}" if abs(value) < 1000 else f"{value:.1f}"


def spread(values: Sequence[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"median {fmt(median)} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median {fmt(median)}  q1 {fmt(q1)}  q3 {fmt(q3)}  "
            f"IQR {fmt(q3 - q1)}  min {fmt(min(values))}  "
            f"max {fmt(max(values))}")


def metric_of(run: Dict[str, Any], name: str) -> float:
    """An end-to-end metric of one child run: host-clock ones sit under
    `host`, simulated ones under `exact`."""
    host = run["host"]
    return host[name] if name in host else run["exact"]["end_to_end"][name]


def report(metric: Dict[str, Any], runs: Dict[str, List[Dict[str, Any]]]) -> None:
    """One end-to-end metric: every run of each side, spread, pair wins."""
    name = metric["name"]
    sign = 1 if metric["better"] == "lower" else -1
    values = {side: [metric_of(run, name) for run in runs[side]]
              for side in "AB"}
    pairs = list(zip(values["A"], values["B"]))
    wins = sum(sign * b < sign * a for a, b in pairs)
    ties = sum(b == a for a, b in pairs)
    for side in "AB":
        print(f"  {side} {name}: " + " ".join(map(fmt, values[side])))
        print(f"  {side} {spread(values[side])}")
    medians = {side: statistics.median(values[side]) for side in "AB"}
    ratio = (f"B/A median {medians['B'] / medians['A']:.4f} (base A)"
             if medians["A"] else "A median 0")
    print(f"  {name} ({metric['better']} is better): {ratio}; "
          f"B - A {medians['B'] - medians['A']:+.3f} {metric['unit']}; "
          f"B wins {wins}/{len(pairs)} pairs, {ties} ties")


def compare(workload: str, trees: Dict[str, Path], pairs: int, seed: int,
            scale: float, metrics: Sequence[Dict[str, Any]]) -> bool:
    """Run the pairs for one workload and print them; True when the two
    sides' `exact` dicts are equal."""
    runs: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
    for side in ("A", "B"):
        child(trees[side], workload, seed, scale)          # warm-up
    for pair in range(pairs):
        for side in ("AB" if pair % 2 == 0 else "BA"):
            runs[side].append(child(trees[side], workload, seed, scale))
        a, b = (runs[side][-1]["host"] for side in "AB")
        print(f"  pair {pair + 1:>2} ({'A' if pair % 2 == 0 else 'B'} first): "
              f"host_us_per_op A {a['host_us_per_op']:8.1f}  "
              f"B {b['host_us_per_op']:8.1f}   "
              f"peak_rss_mb A {a['peak_rss_mb']:6.2f}  "
              f"B {b['peak_rss_mb']:6.2f}", file=sys.stderr, flush=True)

    print(f"== {workload}: {pairs} interleaved pairs, seed {seed}, "
          f"scale {scale} ==")
    for metric in metrics:
        report(metric, runs)
    difference = first_difference(runs["A"][0]["exact"], runs["B"][0]["exact"])
    print("  exact: equal" if difference is None
          else f"  exact: DIFFERENT at {difference}")
    return difference is None


def main(argv: Optional[Sequence[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(
        prog="tools/ledger_ab.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref", help="side A: any git ref (side B is this tree)")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of BENCHMARK.json's)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ledger-ab-") as tmp:
        side_a = Path(tmp) / "a"
        archive(args.ref, side_a)
        trees = {"A": side_a, "B": ROOT}
        print(f"A = {args.ref} (archived), B = {ROOT} (working tree)")
        equal = [compare(name, trees, args.pairs, args.seed, args.scale,
                         declared["end_to_end"])
                 for name in ([args.workload] if args.workload else names)]
    return 0 if all(equal) else 1


if __name__ == "__main__":
    sys.exit(main())
