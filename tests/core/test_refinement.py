"""Refinement checking on purpose-built tiny machines."""

from collections import Counter

import pytest

from repro.core.action import Action, Clause
from repro.core.machine import SpecMachine
from repro.core.refinement import (
    RefinementMapping,
    check_refinement,
    projection_mapping,
)
from repro.core.state import State
from repro.specs import multipaxos as mp, raftstar as rs


def counter(name, limit, step):
    inc = Action(name=f"Inc{step}", clauses=(
        Clause("below", "guard", lambda s, p: s["n"] + step <= limit),
        Clause("bump", "update", lambda s, p: s["n"] + step, var="n"),
    ))
    return SpecMachine(name=name, variables=("n",), constants={},
                       init=lambda c: [State({"n": 0})], actions=[inc])


IDENTITY = RefinementMapping("id", lambda s: s)


def test_same_machine_refines_itself():
    m = counter("m", 5, 1)
    assert check_refinement(m, m, IDENTITY).ok


def test_step2_refines_step1_with_two_high_steps():
    low = counter("low", 6, 2)
    high = counter("high", 6, 1)
    strict = check_refinement(low, high, IDENTITY, max_high_steps=1)
    assert not strict.ok  # one low step jumps by 2
    relaxed = check_refinement(low, high, IDENTITY, max_high_steps=2)
    assert relaxed.ok


def test_step1_refines_step2_fails():
    """The fine-grained machine reaches odd states the coarse one cannot."""
    low = counter("low", 6, 1)
    high = counter("high", 6, 2)
    result = check_refinement(low, high, IDENTITY, max_high_steps=3)
    assert not result.ok
    assert "no high counterpart" in result.failures[0].describe() or True
    assert result.failures[0].mapped_to["n"] % 2 == 1


def test_stuttering_steps_allowed():
    """Low steps invisible under the mapping are stutters."""
    tick = Action(name="Tick", clauses=(
        Clause("below", "guard", lambda s, p: s["aux"] < 3),
        Clause("bump-aux", "update", lambda s, p: s["aux"] + 1, var="aux"),
    ))
    low = SpecMachine(name="low", variables=("n", "aux"), constants={},
                      init=lambda c: [State({"n": 0, "aux": 0})], actions=[tick])
    high = counter("high", 5, 1)
    mapping = projection_mapping("drop-aux", ("n",))
    result = check_refinement(low, high, mapping)
    assert result.ok
    assert result.stutters == 3


def test_init_mismatch_detected():
    low = SpecMachine(name="low", variables=("n",), constants={},
                      init=lambda c: [State({"n": 7})], actions=[])
    high = counter("high", 5, 1)
    result = check_refinement(low, high, IDENTITY)
    assert not result.ok
    assert result.init_failures


def test_summary_strings():
    m = counter("m", 3, 1)
    result = check_refinement(m, m, IDENTITY)
    assert "HOLDS" in result.summary()
    bad = check_refinement(counter("l", 4, 1), counter("h", 4, 2), IDENTITY)
    assert "FAILS" in bad.summary()


def test_observed_correspondence_recorded():
    m = counter("m", 3, 1)
    mapping = RefinementMapping("id", lambda s: s,
                                action_map={"Inc1": ("Inc1",)})
    result = check_refinement(m, m, mapping)
    assert result.observed_correspondence["Inc1"] == {"Inc1"}


def test_max_failures_caps_reporting():
    low = counter("low", 10, 1)
    high = counter("high", 10, 2)
    result = check_refinement(low, high, IDENTITY, max_failures=2)
    assert len(result.failures) == 2
    assert result.complete  # checking stopped, exploration did not


def test_bounded_check_covers_the_states_found_at_the_bound():
    """The state discovered as `max_states` runs out is checked too."""
    m = counter("m", 10, 1)
    result = check_refinement(m, m, IDENTITY, max_states=4)
    assert not result.complete
    assert (result.states_checked, result.transitions_checked) == (4, 4)


def test_each_state_is_expanded_once_per_check(monkeypatch):
    """The check rides the explorer's one BFS: each low state is expanded
    once, and each distinct high state at most once, however many low
    steps map onto it (Appendix C's config)."""
    cfg = mp.default_config(n=3, values=("a", "b"), max_ballot=2, max_index=0)
    low, high = rs.build(cfg), mp.build(cfg)
    expansions = {low.name: Counter(), high.name: Counter()}
    transitions_from = SpecMachine.transitions_from

    def counted(machine, state):
        expansions[machine.name][state] += 1
        return transitions_from(machine, state)

    monkeypatch.setattr(SpecMachine, "transitions_from", counted)
    result = check_refinement(low, high, rs.raftstar_to_multipaxos(cfg),
                              max_states=30_000, max_high_steps=3)
    assert result.ok and result.complete
    assert result.states_checked == 2273
    assert sum(expansions[low.name].values()) == result.states_checked
    assert set(expansions[high.name].values()) == {1}
