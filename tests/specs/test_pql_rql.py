"""PQL (B.3) and the generated Raft*-PQL (B.4)."""

import pytest

from repro.core.explorer import Explorer
from repro.core.optimization import diff_optimization
from repro.core.refinement import check_refinement, projection_mapping
from repro.specs import multipaxos as mp
from repro.specs import pql, raftstar as rs, rql


def tiny():
    return pql.default_config(n=3, values=("a",), max_ballot=1, max_index=0,
                              max_timer=1, lease_duration=1)


def test_pql_is_non_mutating():
    cfg = tiny()
    diff = diff_optimization(mp.build(cfg), pql.build(cfg))
    assert diff.non_mutating
    assert set(diff.new_variables) == set(pql.NEW_VARIABLES)
    added = {action.name for action in diff.added}
    assert added == {"GrantLease", "UpdateTimer", "Apply", "ReadAtLocal"}


def test_pql_refines_multipaxos_by_projection():
    """§4.2: non-mutating optimizations refine the base under projection."""
    cfg = tiny()
    result = check_refinement(
        pql.build(cfg), mp.build(cfg),
        projection_mapping("drop-lease-vars", mp.build(cfg).variables),
        max_states=4_000,
    )
    assert result.ok


def test_pql_lease_invariants_bounded():
    cfg = tiny()
    result = Explorer(pql.build(cfg),
                      invariants=pql.LEASE_INVARIANTS, max_states=8_000).run()
    assert result.ok


def test_lease_activity_requires_quorum():
    cfg = tiny()
    machine = pql.build(cfg)
    state = machine.initial_states()[0]
    assert not pql.lease_is_active(state, cfg, "p0")
    # grants from p0 and p1 to p0 => quorum lease for p0
    grant = machine.action("GrantLease")
    state = grant.apply(state, {"p": "p0", "q": "p0"})
    state = grant.apply(state, {"p": "p1", "q": "p0"})
    assert pql.lease_is_active(state, cfg, "p0")
    assert not pql.lease_is_active(state, cfg, "p1")


def test_timer_expires_leases():
    cfg = pql.default_config(max_timer=2, lease_duration=1)
    machine = pql.build(cfg)
    state = machine.initial_states()[0]
    grant = machine.action("GrantLease")
    tick = machine.action("UpdateTimer")
    for grantor in ("p0", "p1"):
        state = grant.apply(state, {"p": grantor, "q": "p0"})
    assert pql.lease_is_active(state, cfg, "p0")
    state = tick.apply(state, {})
    state = tick.apply(state, {})
    assert not pql.lease_is_active(state, cfg, "p0")


def test_rql_generated_actions():
    cfg = tiny()
    machine = rql.build(cfg)
    names = {action.name for action in machine.actions}
    assert {"RequestVote", "AcceptEntries", "GrantLease", "ReadAtLocal"} <= names
    assert set(pql.NEW_VARIABLES) <= set(machine.variables)


def test_rql_refines_raftstar():
    cfg = tiny()
    result = check_refinement(
        rql.build(cfg), rs.build(cfg), rql.mapping_to_raftstar(cfg),
        max_states=4_000,
    )
    assert result.ok


def test_rql_inherits_lease_invariants():
    cfg = tiny()
    result = Explorer(rql.build(cfg),
                      invariants=rql.lease_invariants(cfg), max_states=4_000).run()
    assert result.ok


def test_rql_local_read_needs_quorum_lease():
    """The ported ReadAtLocal reads lease state directly and Paxos state
    through the Figure 3 mapping."""
    cfg = tiny()
    machine = rql.build(cfg)
    state = machine.initial_states()[0]
    read = machine.action("ReadAtLocal")
    assert not read.enabled(state, {"a": "p0"})
    grant = machine.action("GrantLease")
    state = grant.apply(state, {"p": "p0", "q": "p0"})
    state = grant.apply(state, {"p": "p1", "q": "p0"})
    assert read.enabled(state, {"a": "p0"})  # empty log: applied == tail


@pytest.mark.slow
def test_rql_refines_pql_deeper():
    cfg = tiny()
    result = check_refinement(
        rql.build(cfg), pql.build(cfg), rql.mapping_to_pql(cfg),
        max_states=8_000, max_high_steps=4,
    )
    assert result.ok
