"""Pipelined sessions and open-loop load (beyond the paper's closed loop).

The paper's throughput figures are closed-loop: every client has exactly
one outstanding request, so the measured number is as much a property of
the client fleet as of the protocol (Marandi et al. show in-flight client
requests are the dominant Paxos throughput knob).  The session API makes
the window explicit: the depth sweep shows a FIXED small fleet saturating
the leader as the window deepens, and the open-loop curve shows the
latency knee a closed loop cannot produce — offered load keeps arriving
when the server falls behind, so queueing delay becomes visible.
"""

import pytest

from benchmarks.conftest import bench_scale
from repro.bench import experiments as ex


@pytest.mark.slow
def test_pipeline_depth_sweep(benchmark, save_figure):
    table = benchmark.pedantic(
        ex.pipeline_depth_sweep, kwargs={"scale": bench_scale()},
        rounds=1, iterations=1)
    save_figure("pipeline_depth_sweep", table.render())

    # The acceptance bar: at equal client count, depth-8 sessions at least
    # double depth-1 throughput on both the Raft and MultiPaxos rows.
    for system in ("Raft", "MultiPaxos"):
        assert table.cell(system, "depth 8") >= 2.0 * table.cell(system, "depth 1")

    # Monotone in depth until saturation (generous slack for the last
    # point, where the leader may already be CPU-bound).
    for system in ("Raft", "MultiPaxos", "Raft*-PQL (lease reads)"):
        cells = [table.cell(system, f"depth {d}") for d in (1, 2, 4, 8)]
        for prev, nxt in zip(cells, cells[1:]):
            assert nxt >= 0.9 * prev
        # Every pipelined run's history — lease-local reads included on
        # the PQL row — passed the FULL checker.
        assert table.cell(system, "linearizable") == "yes"


@pytest.mark.slow
def test_pipeline_open_loop_curve(benchmark, save_figure):
    table = benchmark.pedantic(
        ex.pipeline_open_loop, kwargs={"scale": bench_scale()},
        rounds=1, iterations=1)
    save_figure("pipeline_open_loop", table.render())

    loads = [float(row[0]) for row in table.rows]
    for label in ("Raft", "MultiPaxos"):
        achieved = [table.cell(f"{load:g}", f"{label} ops/s")
                    for load in loads]
        mean_ms = [table.cell(f"{load:g}", f"{label} mean ms")
                   for load in loads]
        # Below the knee the system keeps up (achieved tracks offered);
        # past it the curve saturates: the top point gains little over
        # its predecessor while its latency blows up.
        assert achieved[0] >= 0.75 * loads[0]
        assert achieved[-1] <= 1.05 * max(achieved)
        assert mean_ms[-1] > 3.0 * mean_ms[0]   # the knee is visible
        # Latency is monotone-ish in offered load.
        assert mean_ms[-1] == max(mean_ms)
    # Every open-loop run linearizable, queueing delay included.
    for load in loads:
        assert table.cell(f"{load:g}", "linearizable") == "yes"


@pytest.mark.slow
def test_mencius_pipeline(benchmark, save_figure):
    """The depth sweep replayed on the leaderless log, both execution
    modes: a deep window fans in-flight commands out to every owner."""
    table = benchmark.pedantic(
        ex.mencius_pipeline, kwargs={"scale": bench_scale()},
        rounds=1, iterations=1)
    save_figure("mencius_pipeline", table.render())

    for system in ("Mencius-100% (ordered)", "Mencius-0% (commutative)"):
        assert table.cell(system, "depth 8") >= 2.0 * table.cell(system, "depth 1")
        # The commutative mode may re-order between skips, but the full
        # checker over client-observed events must not see it.
        assert table.cell(system, "linearizable") == "yes"
