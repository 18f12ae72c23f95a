"""The span log: a bounded ring of phase records on Observability."""

import repro.obs
from repro.metrics.recorder import MetricsRecorder
from repro.obs import Observability
from repro.sim.events import Simulator


def _full_ring(monkeypatch):
    monkeypatch.setattr(repro.obs, "SPAN_CAPACITY", 2)
    obs = Observability(Simulator(), MetricsRecorder())
    for t in range(5):
        obs.phase(t, "c:0", "send", "c")
    return obs


def test_capacity_drops_overflow(monkeypatch):
    obs = _full_ring(monkeypatch)
    assert len(obs.span_log) == 2
    assert obs.dropped == 3


def test_ring_mode_keeps_the_newest(monkeypatch):
    """A full ring evicts the OLDEST record (a flight recorder: the span
    collector wants the end of the run, not the start) and counts it."""
    obs = _full_ring(monkeypatch)
    assert [record[0] for record in obs.span_log] == [3, 4]
    assert obs.dropped == 3
