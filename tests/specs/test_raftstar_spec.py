"""Raft* spec (Appendix B.2) and the headline refinement to MultiPaxos."""

import pytest

from repro.core.explorer import Explorer
from repro.core.refinement import check_refinement
from repro.specs import multipaxos as mp
from repro.specs import raftstar as rs
from repro.specs.mapping import SPEC_CORRESPONDENCE


def tiny():
    return mp.default_config(n=3, values=("a", "b"), max_ballot=2, max_index=0)


def test_invariants_hold_complete():
    machine = rs.build(tiny())
    result = Explorer(machine, invariants=rs.INVARIANTS, max_states=30_000).run()
    assert result.ok and result.complete


def test_refinement_to_multipaxos_holds():
    """§3's main theorem, mechanically: Raft* => MultiPaxos under Figure 3."""
    cfg = tiny()
    result = check_refinement(
        rs.build(cfg), mp.build(cfg), rs.raftstar_to_multipaxos(cfg),
        max_states=30_000, max_high_steps=3,
    )
    assert result.ok, result.failures[:1]
    assert result.complete
    # ...and every correspondence the run observed is a row of the one
    # Figure 3 function table (`specs.mapping`), with no stutter-only action.
    assert set(result.observed_correspondence) == set(SPEC_CORRESPONDENCE)
    for action, implied in result.observed_correspondence.items():
        assert implied <= set(SPEC_CORRESPONDENCE[action]), (action, implied)


def test_up_to_date_comparison():
    log = ((1, "a"), (1, "b"))
    assert rs.up_to_date(1, 1, log)          # equal (bal, index)
    assert rs.up_to_date(5, 2, log)          # higher ballot wins
    assert not rs.up_to_date(0, 1, log)      # shorter log at same ballot
    assert not rs.up_to_date(3, 0, log)      # lower last ballot
    assert rs.up_to_date(-1, -1, ())         # both empty


def test_merged_log_adopts_extras():
    own = ((1, "a"),)
    snapshots = [((1, "a"), (1, "b")), ((1, "a"), (2, "c"))]
    merged = rs.merged_log(own, snapshots)
    assert merged == ((1, "a"), (2, "c"))  # highest ballot at index 1


def test_merged_log_keeps_own_prefix():
    own = ((3, "mine"),)
    snapshots = [((1, "theirs"), (1, "extra"))]
    merged = rs.merged_log(own, snapshots)
    assert merged[0] == (3, "mine")
    assert merged[1] == (1, "extra")


def test_merged_log_stops_at_holes():
    own = ()
    snapshots = [((1, "a"),)]
    assert rs.merged_log(own, snapshots) == ((1, "a"),)


def test_mapping_projects_variables():
    cfg = tiny()
    machine = rs.build(cfg)
    state = machine.initial_states()[0]
    mapped = rs.raftstar_to_multipaxos(cfg)(state)
    assert set(mapped) == set(mp.build(cfg).variables)
    assert mapped["ballot"] == state["term"]


@pytest.mark.slow
def test_refinement_two_slots():
    cfg = mp.default_config(n=3, values=("a",), max_ballot=2, max_index=1)
    result = check_refinement(
        rs.build(cfg), mp.build(cfg), rs.raftstar_to_multipaxos(cfg),
        max_states=20_000, max_high_steps=4,
    )
    assert result.ok and result.complete
