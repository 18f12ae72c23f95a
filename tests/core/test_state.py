"""Immutable states and maps."""

import pytest
from hypothesis import given, strategies as st

from repro.core.state import FMap, State, fmap_const, show


def test_fmap_lookup_and_set():
    m = FMap({"a": 1})
    assert m["a"] == 1
    m2 = m.set("b", 2)
    assert m2["b"] == 2 and "b" not in m


def test_fmap_equality_and_hash():
    assert FMap({"a": 1, "b": 2}) == FMap({"b": 2, "a": 1})
    assert hash(FMap({"a": 1})) == hash(FMap({"a": 1}))


def test_fmap_equality_with_dict():
    assert FMap({"a": 1}) == {"a": 1}


def test_fmap_update_and_remove():
    m = FMap({"a": 1}).update({"b": 2, "c": 3}).remove("a")
    assert dict(m) == {"b": 2, "c": 3}


def test_fmap_const():
    m = fmap_const(["x", "y"], 0)
    assert m["x"] == 0 and m["y"] == 0 and len(m) == 2


def test_fmap_mixed_key_types():
    m = FMap({1: "a", "k": "b"})
    assert m[1] == "a" and m["k"] == "b"


def test_state_with_replaces():
    s = State({"x": 1, "y": 2})
    s2 = s.with_(x=10)
    assert s2["x"] == 10 and s["x"] == 1 and s2["y"] == 2


def test_state_with_unknown_var_raises():
    with pytest.raises(KeyError):
        State({"x": 1}).with_(z=1)


def test_state_assign_allows_new_vars():
    s = State({"x": 1}).assign({"y": 2})
    assert s["y"] == 2


def test_state_restrict():
    s = State({"x": 1, "y": 2, "z": 3}).restrict(("x", "z"))
    assert set(s) == {"x", "z"}


def test_state_hash_equality():
    a = State({"x": FMap({"k": frozenset({1})})})
    b = State({"x": FMap({"k": frozenset({1})})})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_state_pretty():
    text = State({"x": 1}).pretty()
    assert "x = 1" in text


def test_rendering_sorts_set_elements():
    votes = frozenset({(1, 1, "b"), (0, 1, "a"), (0, 2, "a")})
    expected = "frozenset({(0, 1, 'a'), (0, 2, 'a'), (1, 1, 'b')})"
    assert show(votes) == expected
    assert show((votes,)) == f"({expected},)"
    assert show(frozenset()) == "frozenset()"
    state = State({"votes": FMap({"p0": votes}), "n": 1})
    assert repr(state) == f"State(n=1, votes=FMap({{'p0': {expected}}}))"
    assert f"votes = FMap({{'p0': {expected}}})" in state.pretty()


@given(st.dictionaries(st.sampled_from("abcde"), st.integers(), min_size=1))
def test_fmap_roundtrip(d):
    assert dict(FMap(d)) == d


@given(st.dictionaries(st.sampled_from("abc"), st.integers(), min_size=1),
       st.sampled_from("abc"), st.integers())
def test_fmap_set_semantics(d, key, value):
    m = FMap(d).set(key, value)
    expected = dict(d)
    expected[key] = value
    assert dict(m) == expected
