"""Event queue and simulator core.

A `Simulator` owns a monotonic integer-microsecond clock and a two-level
pending-event structure tuned for the simulation's arrival pattern:

* **near store** — events below a rolling horizon live in a dict keyed by
  their exact timestamp (one list per distinct microsecond, kept in
  insertion order) plus a small heap of the distinct timestamps.  Events
  scheduled at an already-pending time cost one list append — no heap
  operation — and a whole same-tick batch dispatches off one heap pop.
* **timer wheel** — events at or beyond the horizon live in coarse
  buckets of ``2**WHEEL_BITS`` microseconds.  Scheduling into the far
  future is one dict append; when the near store drains, the next bucket
  cascades into it (its events re-keyed by exact time) and the horizon
  advances past the bucket.  Far-future timers — heartbeats, election
  timeouts, lease expiries — never touch the near heap until their bucket
  comes up, which keeps that heap small and its operations cheap.

Cancellation is a lazy flag (O(1)); cancelled entries are skipped at
dispatch (and silently dropped when their bucket cascades).  When the
cancelled backlog grows past `COMPACT_THRESHOLD` *and* outnumbers the
live events, the structures are compacted in place so a cancel-heavy
workload cannot pollute the queue indefinitely.

Determinism contract: given the same seed and the same sequence of
`schedule` calls, a run produces the identical event order.  Ties on the
timestamp are broken by insertion sequence number (the per-timestamp
lists are in insertion order, and bucket cascade preserves it).
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.sim.errors import SchedulingError

#: log2 of the wheel bucket width: 4096 us buckets — small enough that a
#: cascade re-keys only a few ms of events, large enough that ms-scale
#: timers (heartbeats, flush ticks, election timeouts) skip the near heap.
WHEEL_BITS = 12

#: Compact the queue once this many cancelled entries are pending AND they
#: outnumber the live ones.
COMPACT_THRESHOLD = 1024


class Event:
    """A scheduled callback.

    Events are cancellable: `cancel()` marks the event dead and the simulator
    skips it when popped (lazy deletion, O(1) cancel).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(self, time: int, seq: int, callback: Callable[..., None],
                 args: tuple, sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event so it will not fire."""
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None:
                sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state})"


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
        # Near store: exact time -> events in insertion order, plus a heap
        # of the distinct times.  Holds every event with time < _horizon.
        self._at: Dict[int, List[Event]] = {}
        self._times: List[int] = []
        # Timer wheel: coarse bucket (time >> WHEEL_BITS) -> events in
        # insertion order, plus a heap of the distinct bucket ids.  Holds
        # every event with time >= _horizon.
        self._wheel: Dict[int, List[Event]] = {}
        self._buckets: List[int] = []
        self._horizon = 1 << WHEEL_BITS
        # Exact counts: live (queued, not cancelled) and cancelled-but-
        # still-queued events.
        self._live = 0
        self._cancelled = 0
        # The timestamp whose batch is currently dispatching (compaction
        # must not replace that list out from under the dispatch loop).
        self._dispatch_time: Optional[int] = None
        self._running = False
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
        event = Event(time, self._seq, callback, args, self)
        self._live += 1
        if time < self._horizon:
            lst = self._at.get(time)
            if lst is None:
                self._at[time] = [event]
                heapq.heappush(self._times, time)
            else:
                lst.append(event)
        else:
            bucket = time >> WHEEL_BITS
            lst = self._wheel.get(bucket)
            if lst is None:
                self._wheel[bucket] = [event]
                heapq.heappush(self._buckets, bucket)
            else:
                lst.append(event)
        return event

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule `callback(*args)` at an absolute simulated time."""
        return self.schedule(time - self._now, callback, *args)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when the next event is later than
        `until` (absolute time, inclusive), or after `max_events` callbacks.
        Returns the number of events processed in this call.
        """
        processed = 0
        at = self._at
        times = self._times
        heappop = heapq.heappop
        # The profiler can only change between run() calls (attach/detach
        # are user-level operations), so one load covers the whole run.
        profiler = self.profiler
        # Pause the cyclic garbage collector while draining: the event loop
        # allocates hundreds of container objects per simulated message, so
        # generation-0 scans otherwise fire thousands of times per second.
        # Everything the simulator churns (events, messages, per-tick lists)
        # dies by refcount — the structures that do form cycles (an event's
        # sim backref, a timer's event) are detached explicitly on pop or
        # cancel — so pausing trades no memory for a large constant factor.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        self._running = True
        try:
            while True:
                if not times:
                    if not self._buckets:
                        break
                    self._cascade()
                    continue
                time = times[0]
                if until is not None and time > until:
                    break
                batch = at[time]
                self._now = time
                self._dispatch_time = time
                # Index iteration: a callback may append same-tick events
                # to this very list; they run in this batch, in seq order.
                i = 0
                if max_events is None and profiler is None:
                    # Fast path: nothing to check per event but the
                    # cancelled flag.  A plain for-loop is safe against
                    # same-tick appends — the list iterator re-checks the
                    # length every step, so events appended by a callback
                    # are visited in seq order.
                    for event in batch:
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        self._live -= 1
                        event.callback(*event.args)
                        processed += 1
                    i = len(batch)
                else:
                    while i < len(batch):
                        if max_events is not None and processed >= max_events:
                            break
                        event = batch[i]
                        i += 1
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        self._live -= 1
                        if profiler is None:
                            event.callback(*event.args)
                        else:
                            profiler.dispatch(event)
                        processed += 1
                self._dispatch_time = None
                if i < len(batch):
                    # max_events hit mid-batch: keep the unprocessed tail.
                    at[time] = batch[i:]
                    break
                del at[time]
                heappop(times)
                if max_events is not None and processed >= max_events:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            self._dispatch_time = None
            self.events_processed += processed
        if until is not None and self._now < until and (
            not self._times or self._times[0] > until
        ):
            # Advance the clock to the requested horizon so repeated
            # run(until=...) calls observe monotonic time.  Wheel events
            # all sit at or beyond the near horizon, which is past the
            # next near time — the check above covers them too, because
            # the loop always cascades before inspecting `until`.
            self._now = until
        return processed

    def _cascade(self) -> None:
        """Move the earliest wheel bucket into the (empty) near store and
        advance the horizon past it.  Preserves insertion order per
        timestamp; drops cancelled entries for free."""
        bucket = heapq.heappop(self._buckets)
        at = self._at
        times = self._times
        for event in self._wheel.pop(bucket):
            if event.cancelled:
                self._cancelled -= 1
                continue
            time = event.time
            lst = at.get(time)
            if lst is None:
                at[time] = [event]
                heapq.heappush(times, time)
            else:
                lst.append(event)
        self._horizon = (bucket + 1) << WHEEL_BITS

    # -- cancellation bookkeeping ------------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > COMPACT_THRESHOLD and self._cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from every pending list (except the batch
        currently dispatching, whose identity the run loop relies on)."""
        removed = 0
        for store, heap in ((self._at, self._times),
                            (self._wheel, self._buckets)):
            dirty = False
            for key in list(store):
                if store is self._at and key == self._dispatch_time:
                    continue
                lst = store[key]
                kept = [event for event in lst if not event.cancelled]
                if len(kept) != len(lst):
                    removed += len(lst) - len(kept)
                    if kept:
                        store[key] = kept
                    else:
                        del store[key]
                        dirty = True
            if dirty:
                heap[:] = list(store)
                heapq.heapify(heap)
        self._cancelled -= removed

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = self._live + self._cancelled
        return f"Simulator(now={self._now}, pending={queued})"
