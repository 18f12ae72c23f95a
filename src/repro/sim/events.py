"""Event queue and simulator core.

A `Simulator` owns a monotonic integer-microsecond clock and one binary
heap of `(time, seq, event)` entries.  `seq` is a per-simulator counter
stamped at `schedule`, so entries never tie and the heap pops in exactly
`(time, seq)` order: same-time events run in insertion order, and a
delay-0 event scheduled during dispatch runs after everything already
queued at that tick.

Cancellation is a lazy flag (O(1)); cancelled entries stay queued as
tombstones and are skipped when popped.  A tombstone drops its callback
and arguments on cancel, so it keeps nothing alive.  When the cancelled
backlog grows past `COMPACT_THRESHOLD` *and* outnumbers the live events,
the heap is filtered and re-heapified in place, so a cancel-heavy
workload (every acknowledged request cancels its retry timer) cannot
grow the queue without bound.

Determinism contract: given the same seed and the same sequence of
`schedule` calls, a run produces the identical event order.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.errors import SchedulingError

#: Compact the queue once this many cancelled entries are pending AND they
#: outnumber the live ones.
COMPACT_THRESHOLD = 1024


class Event:
    """A scheduled callback.

    Events are cancellable: `cancel()` marks the event dead and the simulator
    skips it when popped (lazy deletion, O(1) cancel).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "sim")

    def __init__(self, time: int, callback: Callable[..., None],
                 args: tuple, sim: "Simulator"):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event so it will not fire, and release its callback."""
        if not self.cancelled:
            self.cancelled = True
            self.callback = None
            self.args = ()
            self.sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, {state})"


class Simulator:
    """Single-threaded discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10, fired.append, 'a')
    >>> _ = sim.schedule(5, fired.append, 'b')
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Event]] = []
        # Exact counts: live (queued, not cancelled) and cancelled-but-
        # still-queued events.
        self._live = 0
        self._cancelled = 0
        self.events_processed = 0
        # Opt-in wall-clock profiler (repro.obs.profiler.SimProfiler).
        # None (the default) costs one attribute load + branch per event.
        self.profiler = None

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule `callback(*args)` to run `delay` microseconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay}us in the past")
        time = self._now + int(delay)
        self._seq += 1
        event = Event(time, callback, args, self)
        self._live += 1
        heapq.heappush(self._queue, (time, self._seq, event))
        return event

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule `callback(*args)` at an absolute simulated time."""
        return self.schedule(time - self._now, callback, *args)

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty or when the next event is later than
        `until` (absolute time, inclusive).  Returns the number of events
        processed in this call.
        """
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        # The profiler can only change between run() calls (attach/detach
        # are user-level operations), so one load covers the whole run.
        profiler = self.profiler
        # Pause the cyclic garbage collector while draining: the event loop
        # allocates hundreds of container objects per simulated message, so
        # generation-0 scans otherwise fire thousands of times per second.
        # Everything the simulator churns (events, messages, heap entries)
        # dies by refcount — a popped entry's event is referenced only by
        # the timer that armed it, which drops it on fire or cancel — so
        # pausing trades no memory for a large constant factor.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    break
                event = heappop(queue)[2]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._live -= 1
                self._now = time
                if profiler is None:
                    event.callback(*event.args)
                else:
                    profiler.dispatch(event)
                processed += 1
        finally:
            if gc_was_enabled:
                gc.enable()
            self.events_processed += processed
        if until is not None and self._now < until:
            # Advance the clock to the requested horizon so repeated
            # run(until=...) calls observe monotonic time.
            self._now = until
        return processed

    # -- cancellation bookkeeping ------------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > COMPACT_THRESHOLD and self._cancelled > self._live:
            # In place: a running `run()` holds this very list.
            queue = self._queue
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = self._live + self._cancelled
        return f"Simulator(now={self._now}, pending={queued})"
