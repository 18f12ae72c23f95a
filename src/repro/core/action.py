"""Subactions as structured conjunctions.

A TLA+ subaction is a conjunction of clauses; some clauses are *enabling
conditions* (guards — predicates over the current state and parameters) and
some assert *next-state values* (updates — `var' = expr`).  The porting
algorithm of §4.3 needs this structure explicitly: it classifies clauses as
original vs added, checks that added clauses never write the base protocol's
variables, and re-targets added clauses onto another protocol through a
state/parameter mapping.

Clauses are identified by name.  Two clauses with the same name are treated
as the same clause when diffing A against A∆ — the framework's contract is
that an optimized spec is built by *reusing* the base spec's clause objects
and adding new ones (exactly how one edits a TLA+ spec).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.core.state import State


@dataclass(frozen=True)
class Clause:
    """One conjunct of a subaction.

    kind 'guard':  `fn(state, params) -> bool`
    kind 'update': `fn(state, params) -> new value` for variable `var`;
                   the TLA+ clause `var' = fn(...)`.
    """

    name: str
    kind: str  # 'guard' | 'update'
    fn: Callable[[Mapping, Mapping], Any]
    var: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("guard", "update"):
            raise ValueError(f"clause kind must be guard/update, got {self.kind!r}")
        if self.kind == "update" and not self.var:
            raise ValueError(f"update clause {self.name!r} needs a target variable")
        if self.kind == "guard" and self.var:
            raise ValueError(f"guard clause {self.name!r} cannot target a variable")

    def __eq__(self, other: Any) -> bool:  # identity by name (see module doc)
        if isinstance(other, Clause):
            return self.name == other.name and self.kind == other.kind and self.var == other.var
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.kind, self.var))


def guard(name: str) -> Callable:
    """Decorator: `@guard('bal-is-higher')` over `fn(state, params)`."""

    def wrap(fn: Callable) -> Clause:
        return Clause(name=name, kind="guard", fn=fn)

    return wrap


def update(name: str, var: str) -> Callable:
    """Decorator: `@update('adopt-ballot', var='ballot')`."""

    def wrap(fn: Callable) -> Clause:
        return Clause(name=name, kind="update", fn=fn, var=var)

    return wrap


def _canonical(value: Any) -> Any:
    """Sort key for a domain element: natural order on scalars and tuples; a
    set compares as its sorted elements (`<` on sets is only the subset
    partial order, and iterating one follows the interpreter's hash seed)."""
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(map(_canonical, value)))
    if isinstance(value, tuple):
        return tuple(map(_canonical, value))
    return value


@dataclass
class Action:
    """A parameterized subaction: ∃ params ∈ domains : ∧ clauses.

    `params` maps parameter names to domain functions `fn(constants, state)
    -> iterable`; making domains state-dependent keeps enumeration tractable
    (e.g. "∃ m ∈ msgs" enumerates the current message set rather than a
    static universe).
    """

    name: str
    params: Dict[str, Callable[[Mapping, State], Iterable]] = field(default_factory=dict)
    clauses: Tuple[Clause, ...] = ()

    def __post_init__(self) -> None:
        names = [clause.name for clause in self.clauses]
        if len(set(names)) != len(names):
            raise ValueError(f"action {self.name!r} has duplicate clause names")
        targets = [clause.var for clause in self.clauses if clause.kind == "update"]
        if len(set(targets)) != len(targets):
            raise ValueError(f"action {self.name!r} updates a variable twice")

    @property
    def guards(self) -> Tuple[Clause, ...]:
        return tuple(clause for clause in self.clauses if clause.kind == "guard")

    @property
    def updates(self) -> Tuple[Clause, ...]:
        return tuple(clause for clause in self.clauses if clause.kind == "update")

    def bindings(self, constants: Mapping, state: State) -> Iterator[Dict[str, Any]]:
        """Enumerate parameter bindings (cartesian product of domains).

        A set-valued domain ("∃ m ∈ msgs") is enumerated sorted, so the order
        successors are generated in — and with it which states a bounded run
        reaches and which counterexample it reports first — is the same
        under every `PYTHONHASHSEED`.
        """
        if not self.params:
            yield {}
            return
        names = list(self.params)
        domains = []
        for name in names:
            domain = self.params[name](constants, state)
            domain = (sorted(domain, key=_canonical)
                      if isinstance(domain, (set, frozenset)) else list(domain))
            if not domain:
                return
            domains.append(domain)
        for combo in itertools.product(*domains):
            yield dict(zip(names, combo))

    def enabled(self, state: State, params: Mapping) -> bool:
        return all(clause.fn(state, params) for clause in self.guards)

    def apply(self, state: State, params: Mapping) -> State:
        """The next state: update clauses evaluated against the *current*
        state (TLA+ semantics: all primed expressions see unprimed values)."""
        changes = {
            clause.var: clause.fn(state, params) for clause in self.updates
        }
        return state.assign(changes)

    def rewritten(self, edits: Mapping[str, Optional[Clause]]) -> "Action":
        """A derived action with conjuncts swapped (name -> replacement) or
        deleted (name -> None) in place; names it does not hold are ignored
        (`SpecMachine.derive` checks them against the whole spec)."""
        kept = (edits.get(clause.name, clause) for clause in self.clauses)
        return Action(name=self.name, params=dict(self.params),
                      clauses=tuple(clause for clause in kept if clause is not None))

    def with_clauses(self, extra: Iterable[Clause], rename: Optional[str] = None) -> "Action":
        """A derived action with extra conjuncts (used by porting)."""
        return Action(
            name=rename or self.name,
            params=dict(self.params),
            clauses=self.clauses + tuple(extra),
        )

    def __repr__(self) -> str:
        return f"Action({self.name}, params={list(self.params)}, clauses={len(self.clauses)})"
