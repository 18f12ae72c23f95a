"""Live host replacement, both reconfiguration styles (beyond the paper).

One data machine dies permanently under load and is replaced through the
protocol's own log: joint consensus for the Raft family, α-bounded
single-decree reconfiguration for the Paxos family — the same harness,
the same load, so the two styles are comparable (DESIGN.md §13).  The
figure holds both to the client-visible contract and to the claim the
contrast table exists for: the α style logs one entry where joint logs
two, so it finishes the splice sooner.
"""

import pytest

from benchmarks.conftest import bench_scale
from repro.bench import experiments as ex
from repro.bench.report import render_all


@pytest.mark.slow
def test_membership_replacement(save_figure):
    tables, results = ex.membership_timeline(bench_scale(), seed=1)
    save_figure("membership_replacement", render_all(tables))

    assert set(results) == {"joint", "alpha"}
    for result in results.values():
        # The replacement ran to completion in every hosted group...
        assert result.replacement_completed
        assert result.config_changes == result.groups_changed >= 1
        # ...and a permanently dead machine delayed acks at most: none
        # lost, duplicated or re-executed, every shard linearizable.
        assert result.safe, result.describe()
        # Real work on both sides of the replacement.
        assert result.pre_throughput > 0 and result.post_throughput > 0

    assert results["alpha"].replacement_ms < results["joint"].replacement_ms
