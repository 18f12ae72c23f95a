"""Gauge sampling: cadence, stop bound, and the standard cluster probes."""

import pytest

from repro.bench.experiments import pipeline_spec
from repro.bench.harness import run_experiment
from repro.metrics.recorder import MetricsRecorder
from repro.obs import DEFAULT_INTERVAL_US, GaugeSampler
from repro.sim.events import Simulator
from repro.sim.units import sec


def test_sampler_cadence():
    sim, metrics = Simulator(), MetricsRecorder()
    sampler = GaugeSampler(sim, metrics)
    ticks = iter(range(1000))
    sampler.add("depth", lambda: next(ticks))
    sampler.start(stop_at=10 * DEFAULT_INTERVAL_US)
    sim.run(until=10 * DEFAULT_INTERVAL_US)
    samples = metrics.gauges["depth"]
    assert len(samples) == 10
    assert [t for t, _ in samples] == [DEFAULT_INTERVAL_US * i
                                       for i in range(1, 11)]
    assert [v for _, v in samples] == [float(i) for i in range(10)]


def test_sampler_stop_at_bounds_the_tick():
    """The self-rescheduling tick must not outlive `stop_at`, or a bounded
    sim.run(until=...) horizon would never drain."""
    sim, metrics = Simulator(), MetricsRecorder()
    sampler = GaugeSampler(sim, metrics)
    sampler.add("x", lambda: 0.0)
    sampler.start(stop_at=5 * DEFAULT_INTERVAL_US)
    sim.run(until=sec(10))  # a horizon far past stop_at
    # Unbounded, the tick would have fired 200 times to the horizon.
    assert len(metrics.gauges["x"]) == 5
    assert all(t <= 5 * DEFAULT_INTERVAL_US for t, _ in metrics.gauges["x"])


def test_sampler_start_is_idempotent():
    sim, metrics = Simulator(), MetricsRecorder()
    sampler = GaugeSampler(sim, metrics)
    sampler.add("x", lambda: 1.0)
    sampler.start(stop_at=3 * DEFAULT_INTERVAL_US)
    sampler.start(stop_at=3 * DEFAULT_INTERVAL_US)
    sim.run(until=3 * DEFAULT_INTERVAL_US)
    assert len(metrics.gauges["x"]) == 3  # not doubled


@pytest.fixture(scope="module")
def gauged_result():
    spec = pipeline_spec(0.3, seed=3, protocol="raft", depth=4,
                         offered_load=400.0).with_(obs=True)
    return run_experiment(spec)


def test_standard_gauges_present(gauged_result):
    gauges = gauged_result.obs.metrics.gauges
    names = set(gauges)
    assert "session_in_flight" in names
    assert "session_submit_queue" in names
    assert any(n.startswith("cpu_backlog_us.") for n in names)
    assert any(n.startswith("nic_backlog_us.") for n in names)
    assert any(n.startswith("commit_lag.") for n in names)
    assert any(n.startswith("lock_table.") for n in names)
    assert all(samples for samples in gauges.values())


def test_standard_gauges_saw_the_load(gauged_result):
    """At a real offered load the session window is occupied and the
    leader's commit frontier leads the followers at least once."""
    gauges = gauged_result.obs.metrics.gauges
    assert max(v for _, v in gauges["session_in_flight"]) > 0
    lag_series = [s for n, s in gauges.items() if n.startswith("commit_lag.")]
    assert any(v > 0 for series in lag_series for _, v in series)
