"""Event queue / simulator core."""

import weakref

import pytest
from hypothesis import given, strategies as st

from repro.sim.errors import SchedulingError
from repro.sim.events import COMPACT_THRESHOLD, Simulator
from repro.sim.units import ms, sec


def test_runs_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(5, fired.append, tag)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-1, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancelled_events_not_counted_pending():
    sim = Simulator()
    keep = sim.schedule(10, lambda: None)
    drop = sim.schedule(20, lambda: None)
    drop.cancel()
    assert sim.pending() == 1
    assert keep is not drop


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50  # clock advanced to the horizon
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "at")
    sim.run(until=50)
    assert fired == ["at"]


def test_cancelled_event_keeps_nothing_alive():
    """A tombstone stays queued until popped, but releases its callback
    and arguments at cancel time."""

    class Payload:
        pass

    def arm(sim, captured, passed):
        return sim.schedule(sec(5), lambda arg: (captured, arg), passed)

    sim = Simulator()
    captured, passed = Payload(), Payload()
    refs = [weakref.ref(captured), weakref.ref(passed)]
    event = arm(sim, captured, passed)
    del captured, passed
    assert all(ref() is not None for ref in refs)
    event.cancel()
    assert len(sim._queue) == 1
    assert all(ref() is None for ref in refs)


def test_retry_timer_churn_keeps_queue_bounded():
    """Every acknowledged request cancels its 5 s retry timer: at ~2,000
    ops/s for 60 s that is 120,000 tombstones, and compaction must keep
    the queue within twice the live events (or the threshold)."""
    sim = Simulator()
    worst = []

    def check():
        bound = 2 * max(sim.pending(), COMPACT_THRESHOLD) + 1
        worst.append(len(sim._queue) - bound)

    def start(op):
        timer = sim.schedule(sec(5), lambda: None)
        # Completion 1-20 ms later acknowledges the op and cancels its
        # retry timer.
        sim.schedule(ms(1 + op % 20), complete, timer)
        if op < 120_000:
            sim.schedule(500, start, op + 1)
        check()

    def complete(timer):
        timer.cancel()
        check()

    sim.schedule(0, start, 0)
    sim.run(until=sec(60))
    assert max(worst) <= 0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 30


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: sim.schedule_at(25, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [25]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_monotonic_execution_order(delays):
    """Property: callbacks always observe non-decreasing simulated time."""
    sim = Simulator()
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=20),
       st.integers(min_value=0, max_value=100))
def test_run_until_partition(delays, horizon):
    """Property: run(until=h) fires exactly the events with time <= h."""
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, fired.append, delay)
    sim.run(until=horizon)
    assert sorted(fired) == sorted(d for d in delays if d <= horizon)
