"""Benchmark-suite helpers.

Every benchmark regenerates one of the paper's tables/figures and prints it;
with `--write-results` (the root conftest's option) it also saves it under
`benchmarks/results/` — a plain run leaves the tree clean.
`REPRO_BENCH_SCALE` (default 0.6) scales client counts/durations: 1.0
reproduces the EXPERIMENTS.md numbers, smaller values give quicker smoke
runs with the same qualitative shapes.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.6"))


@pytest.fixture
def save_figure(request):
    write = request.config.getoption("--write-results")

    def save(name: str, text: str) -> None:
        if write:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return save
