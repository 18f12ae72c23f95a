"""Immutable protocol states.

A `State` maps variable names to values; values must be hashable (use
`FMap` for dictionaries and `frozenset`/`tuple` for collections).  States
hash and compare by value, which is what lets the explorer deduplicate the
reachable set and the refinement checker compare mapped states.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, Iterator


def show(value: Any) -> str:
    """`repr` with set elements sorted by their own rendering.

    A frozenset iterates in hash order and strings hash differently per
    interpreter run; a printed state or counterexample must not depend on
    `PYTHONHASHSEED` (sorting the renderings works for any element type).
    """
    if isinstance(value, frozenset) and value:
        return "frozenset({%s})" % ", ".join(sorted(map(show, value)))
    if isinstance(value, tuple):
        inner = ", ".join(map(show, value))
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return repr(value)


class FMap(Mapping):
    """A small immutable mapping with value hashing.

    >>> m = FMap({'a': 1})
    >>> m.set('b', 2)['b']
    2
    >>> m['a']
    1
    """

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, items: Any = ()) -> None:
        if isinstance(items, Mapping):
            pairs = tuple(sorted(items.items(), key=lambda kv: repr(kv[0])))
        else:
            pairs = tuple(sorted(items, key=lambda kv: repr(kv[0])))
        object.__setattr__(self, "_items", pairs)
        object.__setattr__(self, "_dict", dict(pairs))
        object.__setattr__(self, "_hash", None)

    def set(self, key: Any, value: Any) -> "FMap":
        new = dict(self._dict)
        new[key] = value
        return FMap(new)

    def update(self, other: Mapping) -> "FMap":
        new = dict(self._dict)
        new.update(other)
        return FMap(new)

    def remove(self, key: Any) -> "FMap":
        new = dict(self._dict)
        new.pop(key, None)
        return FMap(new)

    def __getitem__(self, key: Any) -> Any:
        return self._dict[key]

    def __iter__(self) -> Iterator:
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._items))
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, FMap):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._dict == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {show(v)}" for k, v in self._items)
        return f"FMap({{{inner}}})"


def fmap_const(keys, value) -> FMap:
    """[k ∈ keys |-> value] — the TLA+ constant-function constructor."""
    return FMap({key: value for key in keys})


class State(Mapping):
    """An immutable assignment of values to variable names."""

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, values: Mapping) -> None:
        pairs = tuple(sorted(values.items()))
        object.__setattr__(self, "_items", pairs)
        object.__setattr__(self, "_dict", dict(pairs))
        object.__setattr__(self, "_hash", None)

    def with_(self, **updates: Any) -> "State":
        """A new state with some variables replaced."""
        new = dict(self._dict)
        for key, value in updates.items():
            if key not in new:
                raise KeyError(f"unknown state variable {key!r}")
            new[key] = value
        return State(new)

    def assign(self, updates: Dict[str, Any]) -> "State":
        """Like `with_` but takes a dict (for computed variable names)."""
        new = dict(self._dict)
        for key, value in updates.items():
            new[key] = value
        return State(new)

    def restrict(self, variables) -> "State":
        """Project onto a subset of variables (refinement mappings that just
        drop auxiliary state use this)."""
        return State({var: self._dict[var] for var in variables})

    def __getitem__(self, key: str) -> Any:
        return self._dict[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._items))
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, State):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={show(v)}" for k, v in self._items)
        return f"State({inner})"

    def pretty(self) -> str:
        return "\n".join(f"  {k} = {show(v)}" for k, v in self._items)
