"""Structured trace log: a ring of `TraceRecord`s.

The request-lifecycle span log (`repro.obs`) records phase timestamps
here.  The interesting records are at the end of a run, so a full log
evicts the *oldest* record, and the `dropped` count says how many went,
so a truncated log is never mistaken for a complete one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    time: int
    node: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:>12}us] {self.node:<12} {self.kind:<8} {extras}"


class TraceLog:
    """A ring of at most `capacity` `TraceRecord`s (unbounded if None)."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.records: Deque[TraceRecord] = deque(maxlen=capacity)
        self.dropped = 0

    def record(self, time: int, node: str, kind: str, **detail: Any) -> None:
        records = self.records
        if len(records) == records.maxlen:
            self.dropped += 1  # the append below evicts the oldest
        records.append(TraceRecord(time, node, kind, detail))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)
