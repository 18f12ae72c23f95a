"""Actions and machines."""

import pytest

from repro.core.action import Action, Clause, guard, update
from repro.core.machine import SpecMachine
from repro.core.state import State


def counter_machine(limit=3):
    inc = Action(
        name="Inc",
        params={"by": lambda c, s: [1, 2]},
        clauses=(
            Clause("below-limit", "guard",
                   lambda s, p: s["n"] + p["by"] <= c_limit(limit)),
            Clause("bump", "update", lambda s, p: s["n"] + p["by"], var="n"),
        ),
    )
    return SpecMachine(
        name="counter", variables=("n",), constants={"limit": limit},
        init=lambda c: [State({"n": 0})], actions=[inc],
    )


def c_limit(limit):
    return limit


def test_guard_blocks_disabled_bindings():
    machine = counter_machine(limit=1)
    state = machine.initial_states()[0]
    transitions = list(machine.transitions_from(state))
    assert [dict(t.params)["by"] for t in transitions] == [1]


def test_apply_produces_next_state():
    machine = counter_machine()
    state = machine.initial_states()[0]
    nxt = machine.actions[0].apply(state, {"by": 2})
    assert nxt["n"] == 2


def test_updates_see_unprimed_state():
    """TLA+ semantics: all primed expressions read the pre-state."""
    swap = Action(
        name="Swap",
        clauses=(
            Clause("x-gets-y", "update", lambda s, p: s["y"], var="x"),
            Clause("y-gets-x", "update", lambda s, p: s["x"], var="y"),
        ),
    )
    state = State({"x": 1, "y": 2})
    nxt = swap.apply(state, {})
    assert nxt["x"] == 2 and nxt["y"] == 1


def test_duplicate_clause_names_rejected():
    with pytest.raises(ValueError):
        Action(name="Bad", clauses=(
            Clause("same", "guard", lambda s, p: True),
            Clause("same", "guard", lambda s, p: True),
        ))


def test_double_update_same_var_rejected():
    with pytest.raises(ValueError):
        Action(name="Bad", clauses=(
            Clause("a", "update", lambda s, p: 1, var="x"),
            Clause("b", "update", lambda s, p: 2, var="x"),
        ))


def test_update_clause_requires_var():
    with pytest.raises(ValueError):
        Clause("u", "update", lambda s, p: 1)


def test_guard_clause_rejects_var():
    with pytest.raises(ValueError):
        Clause("g", "guard", lambda s, p: True, var="x")


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        Clause("c", "banana", lambda s, p: True)


def test_decorators():
    @guard("positive")
    def positive(s, p):
        return s["n"] > 0

    @update("reset", var="n")
    def reset(s, p):
        return 0

    assert positive.kind == "guard"
    assert reset.var == "n"


def test_with_clauses_extends():
    base = Action(name="A", clauses=(Clause("g", "guard", lambda s, p: True),))
    extended = base.with_clauses([Clause("u", "update", lambda s, p: 1, var="x")])
    assert len(extended.clauses) == 2
    assert extended.name == "A"


def two_clause_machine():
    step = Action(name="Step", clauses=(
        Clause("g", "guard", lambda s, p: s["x"] < 2),
        Clause("bump", "update", lambda s, p: s["x"] + 1, var="x"),
        Clause("count", "update", lambda s, p: s["aux"] + 1, var="aux"),
    ))
    return SpecMachine(name="m", variables=("x", "aux"), constants={},
                       init=lambda c: [State({"x": 0, "aux": 0})],
                       actions=[step])


def test_derive_swaps_and_drops_clauses_by_name():
    derived = two_clause_machine().derive("m2", {
        "bump": Clause("bump-twice", "update", lambda s, p: s["x"] + 2, var="x"),
        "count": None,
    }, dropped_variables=("aux",))
    assert derived.name == "m2" and derived.variables == ("x",)
    assert [c.name for c in derived.action("Step").clauses] == ["g", "bump-twice"]
    (init,) = derived.initial_states()
    assert init == State({"x": 0})
    assert derived.successors(init) == [State({"x": 2})]


def test_derive_rejects_an_unknown_clause_name():
    with pytest.raises(KeyError, match="no-such-clause"):
        two_clause_machine().derive("m2", {"no-such-clause": None})


def test_empty_domain_yields_no_bindings():
    action = Action(name="A", params={"x": lambda c, s: []},
                    clauses=(Clause("g", "guard", lambda s, p: True),))
    assert list(action.bindings({}, State({"n": 0}))) == []


def test_set_valued_domain_enumerates_sorted():
    """Strings hash differently per interpreter run; the enumeration order
    of "∃ m ∈ msgs" must not follow the set's iteration order."""
    msgs = frozenset({("p2", 1), ("p0", 2), ("p1", 1), ("p0", 1)})
    groups = frozenset({frozenset({"b", "c"}), frozenset({"a", "d"}),
                        frozenset({"a"})})
    action = Action(name="A", params={"m": lambda c, s: msgs,
                                      "S": lambda c, s: groups})
    seen = list(action.bindings({}, State({"n": 0})))
    assert [b["m"] for b in seen[::3]] == sorted(msgs)
    assert [b["S"] for b in seen[:3]] == [
        frozenset({"a"}), frozenset({"a", "d"}), frozenset({"b", "c"})]


def test_machine_rejects_bad_init_vars():
    machine = SpecMachine(
        name="bad", variables=("x",), constants={},
        init=lambda c: [State({"y": 1})], actions=[],
    )
    with pytest.raises(ValueError):
        machine.initial_states()


def test_machine_action_lookup():
    machine = counter_machine()
    assert machine.action("Inc").name == "Inc"
    with pytest.raises(KeyError):
        machine.action("Nope")


def test_self_loops_suppressed():
    noop = Action(name="Noop", clauses=(
        Clause("same", "update", lambda s, p: s["n"], var="n"),))
    machine = SpecMachine(name="m", variables=("n",), constants={},
                          init=lambda c: [State({"n": 0})], actions=[noop])
    assert machine.successors(machine.initial_states()[0]) == []
