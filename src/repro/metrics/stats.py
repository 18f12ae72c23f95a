"""Pure statistics helpers (no simulator dependencies)."""

from __future__ import annotations

import math
from typing import Dict, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; pct in [0, 100].  Raises on empty input."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} out of range")
    ordered = sorted(values)
    if pct == 0:
        return ordered[0]
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Standard latency summary: count/mean/p50/p90/p99/p999/max."""
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
                "p999": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "p999": percentile(values, 99.9),
        "max": max(values),
    }
