"""Calibration loop; benchmarks/ledger/measure.py imports it by this path."""

from __future__ import annotations

import time
from typing import Dict


def calibrate(iterations: int = 200_000) -> float:
    """Machine-speed score: iterations/second of a fixed pure-Python
    mix (dict churn + integer heap math), same flavour of work as the
    simulator hot path.  Reported beside every ledger run, for reading
    host-clock results across machines."""
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
