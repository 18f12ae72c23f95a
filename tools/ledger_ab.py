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
alternate which side goes first.  Per workload and side it prints every
`host_us_per_op`, the median and quartiles, the pair wins, `setup_s` and
`peak_rss_mb` medians, and whether the two `exact` dicts (every simulated
metric and counter of a child run) are equal — the first differing key if
not, and then the exit code is 1.

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


def spread(values: Sequence[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"median {median:.1f} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median {median:.1f}  q1 {q1:.1f}  q3 {q3:.1f}  "
            f"IQR {q3 - q1:.1f}  min {min(values):.1f}")


def compare(workload: str, trees: Dict[str, Path], pairs: int, seed: int,
            scale: float) -> bool:
    """Run the pairs for one workload and print them; True when the two
    sides' `exact` dicts are equal."""
    runs: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
    for side in ("A", "B"):
        child(trees[side], workload, seed, scale)          # warm-up
    for pair in range(pairs):
        for side in ("AB" if pair % 2 == 0 else "BA"):
            runs[side].append(child(trees[side], workload, seed, scale))
        a, b = (runs[side][-1]["host"]["host_us_per_op"] for side in "AB")
        print(f"  pair {pair + 1:>2} ({'A' if pair % 2 == 0 else 'B'} first): "
              f"A {a:8.1f}  B {b:8.1f}", file=sys.stderr, flush=True)

    cost = {side: [run["host"]["host_us_per_op"] for run in runs[side]]
            for side in "AB"}
    wins = sum(b < a for a, b in zip(cost["A"], cost["B"]))
    ties = sum(b == a for a, b in zip(cost["A"], cost["B"]))
    print(f"== {workload}: {pairs} interleaved pairs, seed {seed}, "
          f"scale {scale} ==")
    for side in "AB":
        print(f"  {side} host_us_per_op: "
              + " ".join(f"{value:.1f}" for value in cost[side]))
        print(f"  {side} {spread(cost[side])}")
    medians = {side: statistics.median(cost[side]) for side in "AB"}
    print(f"  B/A median {medians['B'] / medians['A']:.4f} (base A); "
          f"B wins {wins}/{pairs} pairs, {ties} ties")
    for metric in ("setup_s", "peak_rss_mb"):
        a, b = (statistics.median(run["host"][metric] for run in runs[side])
                for side in "AB")
        print(f"  {metric} median: A {a:.3f}  B {b:.3f}")
    difference = first_difference(runs["A"][0]["exact"], runs["B"][0]["exact"])
    print("  exact: equal" if difference is None
          else f"  exact: DIFFERENT at {difference}")
    return difference is None


def main(argv: Optional[Sequence[str]] = None) -> int:
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
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
        equal = [compare(name, trees, args.pairs, args.seed, args.scale)
                 for name in ([args.workload] if args.workload else names)]
    return 0 if all(equal) else 1


if __name__ == "__main__":
    sys.exit(main())
