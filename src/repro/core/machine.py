"""State machines: Init ∧ □[Next]_vars.

A `SpecMachine` is the executable analogue of a TLA+ module: variables,
constants, a set of initial states and a disjunction of parameterized
actions.  The explorer and the refinement checker both consume this
interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.action import Action, Clause
from repro.core.state import State, show


@dataclass(frozen=True)
class Transition:
    """One step: state --action(params)--> next_state."""

    state: State
    action: str
    params: Tuple[Tuple[str, Any], ...]
    next_state: State

    def describe(self) -> str:
        params = ", ".join(f"{k}={show(v)}" for k, v in self.params)
        return f"{self.action}({params})"


@dataclass
class SpecMachine:
    """An executable specification."""

    name: str
    variables: Tuple[str, ...]
    constants: Dict[str, Any]
    init: Callable[[Mapping], Iterable[State]]
    actions: List[Action] = field(default_factory=list)

    def initial_states(self) -> List[State]:
        states = list(self.init(self.constants))
        for state in states:
            self._check_vars(state)
        return states

    def _check_vars(self, state: State) -> None:
        if tuple(sorted(state)) != tuple(sorted(self.variables)):
            missing = set(self.variables) - set(state)
            extra = set(state) - set(self.variables)
            raise ValueError(
                f"{self.name}: state variables mismatch "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )

    def action(self, name: str) -> Action:
        for action in self.actions:
            if action.name == name:
                return action
        raise KeyError(f"{self.name} has no action named {name!r}")

    def transitions_from(self, state: State) -> Iterator[Transition]:
        """All enabled (action, binding) successors of `state`.

        Self-loops (next == state) are suppressed: they are stuttering steps
        and carry no information for reachability or refinement.
        """
        for action in self.actions:
            for binding in action.bindings(self.constants, state):
                if not action.enabled(state, binding):
                    continue
                next_state = action.apply(state, binding)
                if next_state == state:
                    continue
                yield Transition(
                    state=state,
                    action=action.name,
                    params=tuple(sorted(binding.items())),
                    next_state=next_state,
                )

    def successors(self, state: State) -> List[State]:
        return [t.next_state for t in self.transitions_from(state)]

    def derive(self, name: str, edits: Mapping[str, Optional[Clause]],
               dropped_variables: Iterable[str] = ()) -> "SpecMachine":
        """The spec obtained by editing this one's text: every clause named
        in `edits` is swapped for its replacement — or deleted, when that is
        None — wherever it occurs, and `dropped_variables` leave the state.
        (Adding conjuncts is `Action.with_clauses`.)"""
        known = {clause.name for action in self.actions for clause in action.clauses}
        if not set(edits) <= known:
            raise KeyError(f"{self.name} has no clause named "
                           f"{sorted(set(edits) - known)}")
        variables = tuple(v for v in self.variables if v not in dropped_variables)
        return SpecMachine(
            name=name, variables=variables, constants=self.constants,
            init=lambda c: [state.restrict(variables) for state in self.init(c)],
            actions=[action.rewritten(edits) for action in self.actions],
        )
