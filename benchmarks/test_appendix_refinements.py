"""Appendix B/C artifacts as benchmarks: every refinement obligation of the
porting pipeline (Figure 5), timed.

These are the machine-checked counterparts of the paper's TLAPS proofs,
run on finite instances.
"""

import pytest

from repro.core.explorer import Explorer
from repro.core.refinement import check_refinement, projection_mapping
from repro.specs import (
    coorpaxos as cp,
    coorraft as cr,
    multipaxos as mp,
    pql,
    raft as rf,
    raftstar as rs,
    rql,
)


def test_appendix_c_raftstar_refines_multipaxos(benchmark, save_figure):
    cfg = mp.default_config(n=3, values=("a", "b"), max_ballot=2, max_index=0)

    def check():
        return check_refinement(rs.build(cfg), mp.build(cfg),
                                rs.raftstar_to_multipaxos(cfg),
                                max_states=30_000, max_high_steps=3)

    result = benchmark.pedantic(check, rounds=1, iterations=1)
    assert result.ok and result.complete
    save_figure("appendix_c_refinement", result.summary())


def test_section3_raft_does_not_refine_multipaxos(benchmark, save_figure):
    cfg = mp.default_config(n=3, values=("a",), max_ballot=2, max_index=1)

    def check():
        return check_refinement(rf.build(cfg), mp.build(cfg),
                                rf.raft_to_multipaxos(cfg),
                                max_states=15_000, max_high_steps=4)

    result = benchmark.pedantic(check, rounds=1, iterations=1)
    assert not result.ok
    lines = [result.summary()]
    for failure in result.failures[:2]:
        lines.append(failure.describe())
    save_figure("section3_negative_result", "\n".join(lines))


@pytest.mark.slow
def test_figure5_rql_obligations(benchmark, save_figure):
    cfg = pql.default_config(n=3, values=("a",), max_ballot=1, max_index=0)

    def check():
        machine = rql.build(cfg)
        to_b = check_refinement(machine, rs.build(cfg),
                                rql.mapping_to_raftstar(cfg), max_states=4_000)
        to_ad = check_refinement(machine, pql.build(cfg),
                                 rql.mapping_to_pql(cfg),
                                 max_states=1_500, max_high_steps=4)
        inv = Explorer(machine, invariants=rql.lease_invariants(cfg),
                       max_states=4_000).run()
        return to_b, to_ad, inv

    to_b, to_ad, inv = benchmark.pedantic(check, rounds=1, iterations=1)
    assert to_b.ok and to_ad.ok and inv.ok
    save_figure("figure5_rql", "\n".join([
        to_b.summary(), to_ad.summary(),
        f"lease invariants: ok over {inv.states_visited} states",
    ]))


@pytest.mark.slow
def test_figure5_coorraft_obligations(benchmark, save_figure):
    cfg = cp.default_config(n=3, values=("nop", "v"), max_ballot=2, max_index=1)

    def check():
        machine = cr.build(cfg)
        to_b = check_refinement(machine, rs.build(cfg),
                                cr.mapping_to_raftstar(cfg), max_states=10_000)
        to_ad = check_refinement(machine, cp.build(cfg),
                                 cr.mapping_to_coorpaxos(cfg),
                                 max_states=10_000, max_high_steps=4)
        inv = Explorer(machine, invariants=cr.mencius_invariants(cfg),
                       max_states=10_000).run()
        return to_b, to_ad, inv

    to_b, to_ad, inv = benchmark.pedantic(check, rounds=1, iterations=1)
    assert to_b.ok and to_ad.ok and inv.ok
    assert to_b.complete and to_ad.complete and inv.complete
    save_figure("figure5_coorraft", "\n".join([
        to_b.summary(), to_ad.summary(),
        f"mencius invariants: ok over {inv.states_visited} states",
    ]))


def test_explorer_throughput(benchmark):
    """Model-checker performance: states/second on the Raft* spec."""
    cfg = mp.default_config(n=3, values=("a",), max_ballot=2, max_index=0)

    def explore():
        return Explorer(rs.build(cfg), max_states=5_000).run()

    result = benchmark.pedantic(explore, rounds=3, iterations=1)
    assert result.states_visited > 0
