"""Regenerate the paper's figures from the command line.

    python -m repro.bench                 # every figure, default scale
    python -m repro.bench --scale 1.0     # EXPERIMENTS.md numbers
    python -m repro.bench fig9c fig10a    # a subset
    python -m repro.bench --help          # every figure and its flags

Installed via setup.py this is also the `repro-bench` console script.
The parser, the help text and the dispatch below are built from the
figure registry (`repro.bench.figures.FIGURES`); a figure's flags, their
defaults and range checks are declared there and nowhere else.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.figures import FIGURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures (and the "
                    "beyond-the-paper ones: pipelining, sharding, live "
                    "reshard and membership, transactions, coalescing).",
        epilog="committed outputs (benchmarks/results/<name>.txt, written "
               "by `pytest benchmarks --write-results`): " + "; ".join(
                   f"{name}: {' '.join(figure.results)}"
                   for name, figure in FIGURES.items() if figure.results))
    parser.add_argument(
        "figures", nargs="*", metavar="figure",
        help=f"which figures to run, any of: {' '.join(FIGURES)} (default: "
             f"all of them)")
    parser.add_argument("--scale", type=float, default=0.6,
                        help="client-count/duration scale: 1.0 reproduces "
                             "the EXPERIMENTS.md numbers, smaller values "
                             "give quicker runs with the same qualitative "
                             "shapes (default: 0.6; REPRO_BENCH_SCALE plays "
                             "the same role for the pytest benchmarks)")
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed (default: 1)")
    for figure in FIGURES.values():
        if figure.options:
            group = parser.add_argument_group(f"`{figure.name}` figure")
            for option in figure.options:
                option.add_to(group)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unknown = [name for name in args.figures if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s) {' '.join(unknown)}; choose from "
                     f"{' '.join(FIGURES)}")
    names = args.figures or list(FIGURES)
    exit_code = 0
    for name in names:
        figure = FIGURES[name]
        start = time.time()
        text, code = figure.run(
            args.scale, args.seed,
            **{option.keyword: option.value(args)
               for option in figure.options})
        print(text)
        print(f"[{name}: {time.time() - start:.1f}s]\n")
        exit_code = max(exit_code, code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
