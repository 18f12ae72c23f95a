"""Refinement mappings and their mechanical checking.

`B ⇒ A` (B refines A) under a state mapping f when every reachable
transition of B maps to a valid A step — or to no step at all (a stuttering
step, f(s') = f(s)).  §2.2 of the paper; the classic definition from Abadi &
Lamport.

One practical extension, needed for the paper's own mapping (§3, "a Raft*'s
function may imply multiple functions in Paxos"): a single B step may map to
a bounded *sequence* of A steps.  `check_refinement(..., max_high_steps=k)`
accepts a B transition when f(s') is reachable from f(s) in at most k A
steps.  k=1 is strict refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Set, Tuple

from repro.core.explorer import Explorer
from repro.core.machine import SpecMachine, Transition
from repro.core.state import State


@dataclass
class RefinementMapping:
    """f : states(low) -> states(high), plus documentation metadata.

    `action_map` is optional documentation (low action name -> high action
    names it is expected to imply); the checker verifies the semantic
    condition regardless, and reports when an observed correspondence
    deviates from the documented one.
    """

    name: str
    state_map: Callable[[State], State]
    action_map: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def __call__(self, state: State) -> State:
        return self.state_map(state)


@dataclass
class RefinementFailure:
    transition: Transition
    mapped_from: State
    mapped_to: State
    reason: str
    trace: List[Transition] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"low step {self.transition.describe()} has no high counterpart: "
            f"{self.reason}\n  f(s)  = {self.mapped_from}\n  f(s') = {self.mapped_to}"
        )


@dataclass
class RefinementResult:
    low: str
    high: str
    mapping: str
    states_checked: int
    transitions_checked: int
    stutters: int
    complete: bool
    failures: List[RefinementFailure] = field(default_factory=list)
    init_failures: List[State] = field(default_factory=list)
    observed_correspondence: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.init_failures

    def summary(self) -> str:
        status = "HOLDS" if self.ok else "FAILS"
        scope = "complete" if self.complete else "bounded"
        return (
            f"refinement {self.low} => {self.high} [{self.mapping}]: {status} "
            f"({scope}; {self.states_checked} states, "
            f"{self.transitions_checked} transitions, {self.stutters} stutters)"
        )


def check_refinement(
    low: SpecMachine,
    high: SpecMachine,
    mapping: RefinementMapping,
    max_states: int = 50_000,
    max_high_steps: int = 1,
    max_failures: int = 3,
) -> RefinementResult:
    """Explore `low` and check every transition against `high` under f."""
    result = RefinementResult(
        low=low.name, high=high.name, mapping=mapping.name,
        states_checked=0, transitions_checked=0, stutters=0, complete=False,
    )

    # Init condition: every mapped low-initial state must be a high-initial
    # state (§4.3's InitB => InitA obligation).
    high_inits = set(high.initial_states())
    for state in low.initial_states():
        if mapping(state) not in high_inits:
            result.init_failures.append(state)
            if len(result.init_failures) >= max_failures:
                return result

    explorer = Explorer(low, max_states=max_states)
    # Each distinct high state's successors, in order (a dict as an ordered
    # set): the high side expands a state at most once per check.
    high_next: Dict[State, Dict[State, None]] = {}

    # Whether f(s') is within `max_high_steps` high steps of f(s): a layer
    # search over `high_next`.
    def high_reaches(src: State, dst: State) -> bool:
        seen = {src}
        layer = [src]
        for _ in range(max_high_steps):
            reached = []
            for cursor in layer:
                nexts = high_next.get(cursor)
                if nexts is None:
                    nexts = high_next[cursor] = dict.fromkeys(high.successors(cursor))
                if dst in nexts:
                    return True
                reached += [nxt for nxt in nexts if nxt not in seen]
                seen.update(nexts)
            layer = reached
        return False

    def check(state: State, transitions: Iterable[Transition]) -> None:
        """The explorer's visitor.  Past `max_failures` it checks nothing,
        but exploration goes on, so `complete` keeps its meaning."""
        if len(result.failures) >= max_failures:
            return
        result.states_checked += 1
        mapped = mapping(state)
        for transition in transitions:
            result.transitions_checked += 1
            mapped_next = mapping(transition.next_state)
            if mapped_next == mapped:
                result.stutters += 1
                result.observed_correspondence.setdefault(
                    transition.action, set()).add("(stutter)")
                continue
            if high_reaches(mapped, mapped_next):
                names = mapping.action_map.get(transition.action)
                result.observed_correspondence.setdefault(
                    transition.action, set()).update(names or ("(step)",))
                continue
            result.failures.append(RefinementFailure(
                transition=transition, mapped_from=mapped, mapped_to=mapped_next,
                reason=f"f(s') not reachable from f(s) in <= {max_high_steps} high step(s)",
                trace=explorer.trace_to(state)))
            if len(result.failures) >= max_failures:
                return

    result.complete = explorer._explore(check).complete
    return result


def projection_mapping(name: str, variables) -> RefinementMapping:
    """The identity-on-shared-variables mapping that simply drops auxiliary
    state — the mapping under which every non-mutating optimization refines
    its base protocol (§4.2)."""
    variables = tuple(variables)

    def state_map(state: State) -> State:
        return state.restrict(variables)

    return RefinementMapping(name=name, state_map=state_map)
