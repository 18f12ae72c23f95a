"""Sim profiler: attach, kind classification, ranked report."""

import pytest

from repro.bench.experiments import pipeline_spec
from repro.bench.harness import run_experiment
from repro.obs import SimProfiler
from repro.sim.events import Simulator
from repro.sim.units import ms


def _work():
    sum(range(100))


def test_detached_by_default():
    sim = Simulator()
    assert sim.profiler is None
    sim.schedule(ms(1), _work)
    sim.run(until=ms(2))
    assert sim.events_processed == 1


def test_attach_counts_and_times_events():
    sim = Simulator()
    profiler = SimProfiler().attach(sim)
    for i in range(5):
        sim.schedule(ms(i + 1), _work)
    sim.run(until=ms(10))
    assert profiler.events == 5
    assert profiler.wall_s > 0.0
    assert profiler.by_kind["_work"][0] == 5


def test_report_is_ranked_and_shares_sum_to_one():
    sim = Simulator()
    profiler = SimProfiler().attach(sim)

    def cheap():
        pass

    for i in range(10):
        sim.schedule(ms(i + 1), _work if i % 2 else cheap)
    sim.run(until=ms(20))
    report = profiler.report()
    assert {row["kind"] for row in report} >= {"_work"}
    walls = [row["wall_s"] for row in report]
    assert walls == sorted(walls, reverse=True)
    assert sum(row["share"] for row in report) == pytest.approx(1.0)
    assert profiler.report(top=1) == report[:1]


def test_render_mentions_totals():
    sim = Simulator()
    profiler = SimProfiler().attach(sim)
    sim.schedule(ms(1), _work)
    sim.run(until=ms(2))
    text = profiler.render()
    assert text.startswith("SimProfiler: 1 events")
    assert "_work" in text


@pytest.fixture(scope="module")
def profiled_result():
    spec = pipeline_spec(0.3, seed=3, protocol="raft", depth=4).with_(obs=True)
    return run_experiment(spec)


def test_cluster_run_classifies_kinds(profiled_result):
    """On a real run the dispatch split the refactor needs is visible:
    message handling per type, delivery, and timers are separate rows."""
    profiler = profiled_result.obs.profiler
    assert profiler is not None and profiler.events > 0
    kinds = set(profiler.by_kind)
    assert any(k.startswith("handle:") for k in kinds)
    assert any(k.startswith("deliver:") for k in kinds)
    assert any(k.startswith("timer:") for k in kinds)
    assert "handle:AppendEntries" in kinds  # the replication fast path
