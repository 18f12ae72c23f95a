"""Event order across near and far timestamps, same-tick batching,
cancelled-entry compaction, and the run-loop GC pause."""

import gc

import pytest

from repro.sim.events import COMPACT_THRESHOLD, Simulator

#: A span in microseconds: multiples of it are "far" next to the
#: single-digit delays the tests mix them with.
FAR = 4096


def test_order_preserved_across_near_and_far():
    sim = Simulator()
    fired = []
    sim.schedule(FAR * 2 + 5, fired.append, "c")
    sim.schedule(3, fired.append, "a")
    sim.schedule(FAR * 5, fired.append, "d")
    sim.schedule(FAR - 1, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_cascade_preserves_insertion_order_within_bucket():
    sim = Simulator()
    fired = []
    when = FAR + 100
    for tag in ("x", "y", "z"):
        sim.schedule(when, fired.append, tag)
    sim.run()
    assert fired == ["x", "y", "z"]


def test_cancelled_far_event_dropped_at_cascade():
    sim = Simulator()
    fired = []
    doomed = sim.schedule(FAR + 50, fired.append, "doomed")
    sim.schedule(FAR + 60, fired.append, "kept")
    doomed.cancel()
    sim.run()
    assert fired == ["kept"]
    assert sim.events_processed == 1
    # The tombstone was skipped without leaving bookkeeping debt.
    assert sim._cancelled == 0
    assert sim.pending() == 0


def test_same_tick_appends_join_the_running_batch():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0, fired.append, "appended")

    sim.schedule(10, first)
    sim.schedule(10, fired.append, "second")
    sim.run()
    # The delay-0 event scheduled DURING the batch runs in the same batch,
    # after everything queued ahead of it (seq order).
    assert fired == ["first", "second", "appended"]


def test_compaction_prunes_cancelled_backlog():
    sim = Simulator()
    keep = []
    events = [sim.schedule(FAR + i, keep.append, i)
              for i in range(COMPACT_THRESHOLD + 2)]
    survivor = sim.schedule(5, keep.append, "live")
    for event in events:
        event.cancel()
    # The cancel backlog crossed COMPACT_THRESHOLD while outnumbering the
    # live events, so the queue was compacted in place: at most the
    # post-compaction stragglers remain, not the thousand-entry backlog.
    assert sim._cancelled <= 1
    assert len(sim._queue) <= 2
    assert sim.pending() == 1
    sim.run()
    assert keep == ["live"]
    assert not survivor.cancelled


def test_gc_paused_during_run_and_restored():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    sim.run()
    assert seen == [False]
    assert gc.isenabled()


def test_gc_already_disabled_stays_disabled():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    gc.disable()
    try:
        sim.run()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gc_restored_when_callback_raises():
    sim = Simulator()

    def boom():
        raise RuntimeError("handler failure")

    sim.schedule(1, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert gc.isenabled()


def test_run_until_with_only_far_events_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(FAR * 4, fired.append, "late")
    sim.run(until=100)
    assert sim.now == 100
    assert fired == []
    sim.run(until=FAR * 10)
    assert fired == ["late"]


def test_identical_schedules_produce_identical_order():
    def drive(sim, fired):
        events = {}
        for i in range(200):
            delay = (i * 37) % (FAR * 3)
            events[i] = sim.schedule(delay, fired.append, i)
        for i in range(0, 200, 3):
            events[i].cancel()
        sim.run()

    fired_a, fired_b = [], []
    drive(Simulator(), fired_a)
    drive(Simulator(), fired_b)
    assert fired_a == fired_b
