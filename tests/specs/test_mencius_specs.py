"""Coordinated Paxos (B.5) and the generated Coordinated Raft* (B.6)."""

import pytest

from repro.core.explorer import Explorer
from repro.core.optimization import diff_optimization
from repro.core.refinement import check_refinement, projection_mapping
from repro.specs import coorpaxos as cp
from repro.specs import coorraft as cr
from repro.specs import multipaxos as mp


def tiny():
    return cp.default_config(n=3, values=("nop", "v"), max_ballot=2, max_index=1)


def test_requires_nop_value():
    with pytest.raises(ValueError):
        cp.default_config(values=("v",))


def test_mencius_is_non_mutating_with_modified_actions():
    """The Case-3 showcase: four of MultiPaxos' subactions are modified."""
    cfg = tiny()
    diff = diff_optimization(mp.build(cfg), cp.build(cfg))
    assert diff.non_mutating
    modified = {m.base.name for m in diff.modified}
    assert modified == {"Propose", "Accept", "Phase1b", "BecomeLeader"}
    assert not diff.added


def test_instance_ownership_round_robin():
    cfg = tiny()
    assert cp.instance_owner(cfg, 0) == "p0"
    assert cp.instance_owner(cfg, 1) == "p1"
    assert cp.instance_owner(cfg, 5) == "p2"


def test_coorpaxos_refines_multipaxos():
    cfg = tiny()
    result = check_refinement(
        cp.build(cfg), mp.build(cfg),
        projection_mapping("drop-mencius-vars", mp.build(cfg).variables),
        max_states=4_000,
    )
    assert result.ok


def test_coorpaxos_invariants():
    cfg = tiny()
    result = Explorer(cp.build(cfg),
                      invariants={**mp.INVARIANTS, **cp.MENCIUS_INVARIANTS},
                      max_states=8_000).run()
    assert result.ok


def test_default_leader_nop_marks_own_skip():
    cfg = tiny()
    machine = cp.build(cfg)
    state = machine.initial_states()[0]
    # Propose requires leadership; set it directly for a unit-level check.
    state = state.with_(leader=state["leader"].set("p0", True),
                        ballot=state["ballot"].set("p0", 0))
    propose = machine.action("Propose")
    binding = {"a": "p0", "i": 0, "v": "nop"}
    assert propose.enabled(state, binding)
    nxt = propose.apply(state, binding)
    assert nxt["skipTags"]["p0"][0] is True
    assert (0, 0, "nop") in nxt["proposedDefaults"]


def test_skip_blocks_later_real_proposal():
    cfg = tiny()
    machine = cp.build(cfg)
    state = machine.initial_states()[0]
    state = state.with_(leader=state["leader"].set("p0", True))
    propose = machine.action("Propose")
    state = propose.apply(state, {"a": "p0", "i": 0, "v": "nop"})
    assert not propose.enabled(state, {"a": "p0", "i": 0, "v": "v"})


def test_non_owner_can_only_propose_nop_or_reproposal():
    cfg = tiny()
    machine = cp.build(cfg)
    state = machine.initial_states()[0]
    state = state.with_(leader=state["leader"].set("p1", True))
    propose = machine.action("Propose")
    # index 0 is owned by p0: p1 may propose nop but not a fresh value
    assert propose.enabled(state, {"a": "p1", "i": 0, "v": "nop"})
    assert not propose.enabled(state, {"a": "p1", "i": 0, "v": "v"})


# CoorRaft's refinement obligations and inherited invariants are checked
# complete at this config by
# benchmarks/test_appendix_refinements.py::test_figure5_coorraft_obligations.


def test_coorraft_generated_structure():
    cfg = tiny()
    machine = cr.build(cfg)
    assert set(cp.NEW_VARIABLES) <= set(machine.variables)
    accept = machine.action("AcceptEntries")
    names = [c.name for c in accept.clauses]
    assert any("mencius-skip-on-nop" in n for n in names)
    assert any("mencius-executable-on-nop" in n for n in names)
    vote = machine.action("ReceiveVote")
    assert any("mencius-attach-skiptags" in n for n in [c.name for c in vote.clauses])
