"""Bounded model checker."""

import pytest

from repro.core.action import Action, Clause
from repro.core.explorer import Explorer
from repro.core.machine import SpecMachine
from repro.core.state import State


def counter(limit):
    inc = Action(name="Inc", clauses=(
        Clause("below", "guard", lambda s, p: s["n"] < limit),
        Clause("bump", "update", lambda s, p: s["n"] + 1, var="n"),
    ))
    return SpecMachine(name="ctr", variables=("n",), constants={},
                       init=lambda c: [State({"n": 0})], actions=[inc])


def test_explores_whole_space():
    result = Explorer(counter(10)).run()
    assert result.states_visited == 11
    assert result.complete
    assert result.diameter == 10


def test_invariant_violation_with_trace():
    explorer = Explorer(counter(10), invariants={"small": lambda s, c: s["n"] < 4})
    result = explorer.run()
    assert len(result.violations) == 1  # exploration stops at the first
    violation = result.violations[0]
    assert violation.state["n"] == 4
    assert len(violation.trace) == 4
    assert "small" in violation.describe()


def test_invariant_exception_reported_as_violation():
    explorer = Explorer(counter(3), invariants={
        "boom": lambda s, c: 1 / (3 - s["n"]) > 0})
    result = explorer.run()
    assert not result.ok
    assert "ZeroDivisionError" in result.violations[0].invariant


def test_max_states_bound_marks_incomplete():
    result = Explorer(counter(1000), max_states=10).run()
    assert not result.complete
    assert result.states_visited == 10


def test_invariant_checked_on_initial_state():
    explorer = Explorer(counter(3), invariants={"never": lambda s, c: False})
    result = explorer.run()
    assert result.violations[0].trace == []


def test_branching_machine_deduplicates():
    """Two paths to the same state count it once."""
    a = Action(name="A", clauses=(
        Clause("g", "guard", lambda s, p: s["x"] == 0),
        Clause("u", "update", lambda s, p: 1, var="x"),
    ))
    b = Action(name="B", clauses=(
        Clause("g2", "guard", lambda s, p: s["x"] == 0),
        Clause("u2", "update", lambda s, p: 1, var="x"),
    ))
    machine = SpecMachine(name="m", variables=("x",), constants={},
                          init=lambda c: [State({"x": 0})], actions=[a, b])
    result = Explorer(machine).run()
    assert result.states_visited == 2
    assert result.transitions_explored == 2


def test_reachable_states_listing():
    explorer = Explorer(counter(3))
    explorer.run()
    values = sorted(s["n"] for s in explorer.reachable_states())
    assert values == [0, 1, 2, 3]
