"""Bounded explicit-state model checking (a miniature TLC).

Breadth-first exploration of the reachable state space with invariant
checking and counterexample trace reconstruction.  Exploration is bounded by
`max_states`; a bounded run that exhausts the frontier is a *complete* check
for the given finite constants, otherwise the result records that the check
was partial (the standard TLC-with-state-limit methodology).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.machine import SpecMachine, Transition
from repro.core.state import State

Invariant = Callable[[State, Mapping], bool]
Visit = Callable[[State, Iterable[Transition]], None]


@dataclass
class InvariantViolation:
    invariant: str
    state: State
    trace: List[Transition]

    def describe(self) -> str:
        steps = "\n".join(f"  {i}: {t.describe()}" for i, t in enumerate(self.trace))
        return (
            f"invariant {self.invariant!r} violated after {len(self.trace)} steps:\n"
            f"{steps}\nstate:\n{self.state.pretty()}"
        )


@dataclass
class ExplorationResult:
    machine: str
    states_visited: int
    transitions_explored: int
    complete: bool
    violations: List[InvariantViolation] = field(default_factory=list)
    diameter: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


class Explorer:
    """BFS model checker."""

    def __init__(self, machine: SpecMachine,
                 invariants: Optional[Dict[str, Invariant]] = None,
                 max_states: int = 100_000) -> None:
        self.machine = machine
        self.invariants = invariants or {}
        self.max_states = max_states
        # parent pointers for trace reconstruction
        self._parent: Dict[State, Optional[Tuple[State, Transition]]] = {}

    def run(self) -> ExplorationResult:
        return self._explore(None)

    # The BFS.  `visit` (the refinement check's) sees each discovered
    # state's transitions once, in discovery order: the states still on the
    # frontier when `max_states` runs out too, though their successors are
    # not discovered.
    def _explore(self, visit: Optional[Visit]) -> ExplorationResult:
        machine = self.machine
        result = ExplorationResult(
            machine=machine.name, states_visited=0, transitions_explored=0, complete=False,
        )
        frontier = deque()
        depth: Dict[State, int] = {}
        for state in machine.initial_states():
            if state not in self._parent:
                self._parent[state] = None
                depth[state] = 0
                frontier.append(state)
                result.states_visited += 1
                if not self._check(state, result):
                    return result

        while frontier:
            state = frontier.popleft()
            transitions = machine.transitions_from(state)
            if visit is not None:
                transitions = list(transitions)
                visit(state, transitions)
            for transition in transitions:
                result.transitions_explored += 1
                nxt = transition.next_state
                if nxt in self._parent:
                    continue
                self._parent[nxt] = (state, transition)
                depth[nxt] = depth[state] + 1
                result.diameter = max(result.diameter, depth[nxt])
                result.states_visited += 1
                if not self._check(nxt, result):
                    return result
                frontier.append(nxt)
                if result.states_visited >= self.max_states:
                    if visit is not None:
                        for left in frontier:
                            visit(left, machine.transitions_from(left))
                    return result  # bounded: frontier not exhausted

        result.complete = True
        return result

    def _check(self, state: State, result: ExplorationResult) -> bool:
        """Returns False, to stop exploring, at the first violation."""
        for name, predicate in self.invariants.items():
            try:
                holds = predicate(state, self.machine.constants)
            except Exception as exc:  # invariant code errors are violations too
                holds = False
                name = f"{name} (raised {type(exc).__name__}: {exc})"
            if not holds:
                result.violations.append(InvariantViolation(
                    invariant=name, state=state, trace=self.trace_to(state),
                ))
                return False
        return True

    def trace_to(self, state: State) -> List[Transition]:
        trace: List[Transition] = []
        cursor = state
        while True:
            parent = self._parent.get(cursor)
            if parent is None:
                break
            prev, transition = parent
            trace.append(transition)
            cursor = prev
        trace.reverse()
        return trace

    def reachable_states(self) -> List[State]:
        """The states discovered by the last `run()`."""
        return list(self._parent)
