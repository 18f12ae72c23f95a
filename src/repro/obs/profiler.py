"""Simulator profiler: wall-clock attribution per event kind.

The sim-speed refactor on the ROADMAP needs a measurement instrument before
it can start: which handlers burn the host machine's wall-clock?  The
`SimProfiler` hooks the one dispatch point every event passes through
(`Simulator.run`) and, when attached, times each callback with
`time.perf_counter`, bucketing by an *event kind* derived from the callback:

* `Node._handle` / `deliver` dispatches are split per message type
  (`handle:AppendEntries` vs `handle:ClientRequest` — the split the
  refactor needs, since one is the replication fast path and the other the
  client path);
* `Timer._fire` is split by the armed callback's qualname;
* everything else is keyed by the callback's own qualname.

Cost model: detached (the default) the simulator pays ONE attribute load +
branch per event.  Attached, each event pays two `perf_counter` calls and
a dict update (~100-200 ns — noticeable, which is why it is opt-in), and
the measured run is no longer wall-clock comparable to an unprofiled one;
simulated time and event order are unaffected either way.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


class SimProfiler:
    """Opt-in per-event-kind wall-clock profiler for `Simulator.run`."""

    def __init__(self) -> None:
        # kind -> [count, wall_seconds]
        self.by_kind: Dict[str, List[float]] = {}
        self.events = 0
        self.wall_s = 0.0

    # -- attachment ----------------------------------------------------------

    def attach(self, sim) -> "SimProfiler":
        sim.profiler = self
        return self

    # -- the dispatch hook ---------------------------------------------------

    def dispatch(self, event) -> None:
        """Run one event's callback under timing (called by Simulator.run
        in place of the plain dispatch when attached)."""
        # Classify BEFORE running: Timer._fire consumes the armed callback,
        # so the timer kind is only readable pre-dispatch.
        kind = self._kind(event)
        t0 = time.perf_counter()
        try:
            event.callback(*event.args)
        finally:
            dt = time.perf_counter() - t0
            self.events += 1
            self.wall_s += dt
            cell = self.by_kind.get(kind)
            if cell is None:
                cell = self.by_kind[kind] = [0, 0.0]
            cell[0] += 1
            cell[1] += dt

    @staticmethod
    def _kind(event) -> str:
        callback = event.callback
        name = getattr(callback, "__qualname__", None) or repr(callback)
        args = event.args
        if name.endswith("._handle") and len(args) >= 2:
            return f"handle:{type(args[1]).__name__}"
        if name.endswith("._deliver") and len(args) >= 3:
            return f"deliver:{type(args[2]).__name__}"
        if name.endswith("._fire"):
            # Timer._fire is argless: the armed callback lives on the timer
            # until the moment it runs (which is why `dispatch` classifies
            # before invoking).
            timer = getattr(callback, "__self__", None)
            inner = getattr(timer, "_callback", None)
            if inner is None and args:
                inner = args[0]
            if inner is not None:
                inner_name = (getattr(inner, "__qualname__", None)
                              or type(inner).__name__)
                return f"timer:{inner_name}"
            if timer is not None and getattr(timer, "name", None):
                return f"timer:{timer.name}"
        return name

    # -- reporting -----------------------------------------------------------

    def report(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Event kinds ranked by total wall-clock, most expensive first."""
        ranked = sorted(self.by_kind.items(),
                        key=lambda kv: (-kv[1][1], kv[0]))
        if top is not None:
            ranked = ranked[:top]
        total = self.wall_s or 1.0
        return [{"kind": kind, "count": int(count), "wall_s": wall,
                 "share": wall / total}
                for kind, (count, wall) in ranked]

    def render(self, top: int = 12) -> str:
        lines = [f"SimProfiler: {self.events} events, "
                 f"{self.wall_s * 1e3:.1f} ms wall-clock in handlers"]
        for row in self.report(top):
            lines.append(
                f"  {row['share'] * 100:5.1f}%  {row['wall_s'] * 1e3:8.2f} ms  "
                f"{row['count']:>8}x  {row['kind']}")
        return "\n".join(lines)
