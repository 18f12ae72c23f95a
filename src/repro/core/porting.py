"""The automatic porting algorithm (§4.3).

Given

* a base protocol **A**, its non-mutating optimization **A∆**,
* a target protocol **B** that refines A under a state mapping *f*,
* the action correspondence (which A action each B action implies — the
  information content of Figure 3's function table), and
* parameter mappings (§4.3's `f_args`),

`port_optimization` derives **B∆**:

* **Case-1** — an added subaction of A∆ becomes an added subaction of B∆
  whose clauses read A's variables *through f* and write only the new
  variables;
* **Case-2** — every subaction of B is carried over (each implies an
  unchanged A subaction or a stutter);
* **Case-3** — a B subaction implying a *modified* A subaction additionally
  gets the optimization's extra clauses, translated through f and the
  parameter mapping.  A B subaction that implies several modified A
  subactions receives all of their clauses (the Raft* `AppendEntries` ⇒
  `Phase2a ∧ Phase2b` situation §4.4 warns hand-porters about).

The generated machine is executable: its correctness obligations (B∆ ⇒ A∆
and B∆ ⇒ B, Figure 5) can be checked with `core.refinement`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.action import Action, Clause
from repro.core.machine import SpecMachine
from repro.core.optimization import diff_optimization
from repro.core.refinement import RefinementMapping, projection_mapping
from repro.core.state import State


class PortingError(Exception):
    """The port's preconditions do not hold (mutating optimization, missing
    correspondence/parameter mapping, clause collision)."""


ParamMap = Callable[[Mapping], Dict[str, Any]]


@dataclass
class PortSpec:
    """Everything the port needs beyond the three machines.

    state_map: the refinement mapping f with VarA = f(VarB).
    correspondence: B action name -> tuple of A action names it implies
        (empty tuple = the B action only ever maps to stutters).
    param_maps: (B action name, A action name) -> translator taking the B
        binding to the A binding.  Only needed where the A action (a) is
        modified by the optimization and (b) its added clauses read
        parameters.  Identity by default.
    expansions: (B action name, A action name) -> enumerator of the A
        bindings one B step implies, `fn(b_state, b_binding) -> [a_binding,
        ...]`.  This is the paper's "a Raft* function may imply multiple
        functions in Paxos": a batched AppendEntries maps to one Accept per
        entry, so the optimization's added clauses must be applied once per
        implied step (guards conjoin; updates fold left-to-right).  Default:
        a single binding through `param_maps`.
    """

    state_map: RefinementMapping
    correspondence: Dict[str, Tuple[str, ...]]
    param_maps: Dict[Tuple[str, str], ParamMap] = field(default_factory=dict)
    expansions: Dict[Tuple[str, str], Callable[[Any, Mapping], List[Mapping]]] = field(
        default_factory=dict)

    def params_for(self, b_action: str, a_action: str, binding: Mapping) -> Dict[str, Any]:
        translator = self.param_maps.get((b_action, a_action))
        if translator is None:
            return dict(binding)
        translated = translator(binding)
        merged = dict(binding)
        merged.update(translated)
        return merged

    def bindings_for(self, b_action: str, a_action: str, state: Any,
                     binding: Mapping) -> List[Dict[str, Any]]:
        expansion = self.expansions.get((b_action, a_action))
        if expansion is None:
            return [self.params_for(b_action, a_action, binding)]
        return [dict(b) for b in expansion(state, binding)]


class _CombinedView(Mapping):
    """A B∆ state viewed as an A∆ state: the optimization's new variables
    are read directly, A's variables are read through f.  `overlay` lets a
    fold over multiple implied A steps see intermediate new-variable values."""

    __slots__ = ("_state", "_mapped", "_new_vars", "_overlay")

    def __init__(self, state: State, mapped: State, new_vars,
                 overlay: Optional[Dict[str, Any]] = None) -> None:
        self._state = state
        self._mapped = mapped
        self._new_vars = new_vars
        self._overlay = overlay or {}

    def __getitem__(self, var: str) -> Any:
        if var in self._overlay:
            return self._overlay[var]
        if var in self._new_vars:
            return self._state[var]
        return self._mapped[var]

    def __iter__(self):
        yield from self._new_vars
        yield from self._mapped

    def __len__(self) -> int:
        return len(self._new_vars) + len(self._mapped)


def _translate_clause(clause: Clause, port: PortSpec, base_vars, new_vars,
                      b_action: Optional[str] = None,
                      a_action: Optional[str] = None,
                      prefix: str = "ported") -> Clause:
    """Rewrite an A∆ clause to run against B∆ states.

    For Case-3 clauses the B step may imply several A steps (see
    `PortSpec.expansions`): guard clauses must hold for every implied step;
    update clauses fold over them, each application seeing the previous
    one's value of the target variable.
    """
    base_vars = tuple(base_vars)
    new_vars = frozenset(new_vars)
    inner = clause.fn

    def fn(state: State, params: Mapping) -> Any:
        mapped = port.state_map(state.restrict(base_vars))
        if b_action is not None and a_action is not None:
            bindings = port.bindings_for(b_action, a_action, state, params)
        else:
            bindings = [dict(params)]
        if clause.kind == "guard":
            return all(
                inner(_CombinedView(state, mapped, new_vars), binding)
                for binding in bindings
            )
        value = state[clause.var]
        for binding in bindings:
            view = _CombinedView(state, mapped, new_vars, overlay={clause.var: value})
            value = inner(view, binding)
        return value

    qualifier = f":{a_action}" if a_action else ""
    return Clause(
        name=f"{prefix}{qualifier}:{clause.name}",
        kind=clause.kind,
        fn=fn,
        var=clause.var,
    )


def port_optimization(
    base: SpecMachine,
    optimized: SpecMachine,
    target: SpecMachine,
    port: PortSpec,
    name: Optional[str] = None,
) -> SpecMachine:
    """Generate B∆ from (A, A∆, B, f, f_args)."""
    diff = diff_optimization(base, optimized)
    problems = diff.mutating_writes()
    if problems:
        raise PortingError(
            "the optimization is not non-mutating; cannot port automatically:\n  "
            + "\n  ".join(problems)
        )

    for action in target.actions:
        if action.name not in port.correspondence:
            raise PortingError(
                f"no correspondence given for target action {action.name!r}; "
                f"map it to the A action(s) it implies, or () for stutter-only"
            )

    new_vars = diff.new_variables
    target_vars = tuple(target.variables)
    ported_vars = target_vars + new_vars

    # Init: B's initial states extended with the optimization's new-variable
    # initial values (taken from A∆'s initial states).
    def ported_init(constants: Mapping) -> Iterable[State]:
        opt_inits = optimized.init(optimized.constants)
        delta_parts = []
        seen = set()
        for opt_state in opt_inits:
            part = tuple((v, opt_state[v]) for v in new_vars)
            if part not in seen:
                seen.add(part)
                delta_parts.append(dict(part))
        for b_state in target.init(target.constants):
            for part in delta_parts:
                yield b_state.assign(part)

    modified_by_a_name = {mod.base.name: mod for mod in diff.modified}
    actions: List[Action] = []

    # Cases 2 and 3: carry over every B action; splice in translated clauses
    # where it implies a modified A action.
    for b_action in target.actions:
        implied = port.correspondence[b_action.name]
        extra: List[Clause] = []
        for a_name in implied:
            mod = modified_by_a_name.get(a_name)
            if mod is None:
                continue  # unchanged A action: Case-2
            for clause in mod.added_clauses:
                extra.append(_translate_clause(
                    clause, port, target_vars, new_vars,
                    b_action=b_action.name, a_action=a_name,
                ))
        if extra:
            targets = [c.var for c in b_action.updates] + [
                c.var for c in extra if c.kind == "update"
            ]
            dupes = {t for t in targets if t is not None and targets.count(t) > 1}
            if dupes:
                raise PortingError(
                    f"clause collision porting onto {b_action.name!r}: "
                    f"multiple updates target {sorted(dupes)}"
                )
            actions.append(b_action.with_clauses(extra))
        else:
            actions.append(b_action)

    # Case 1: added subactions, translated wholesale.  Parameter domains are
    # wrapped too, so an added action quantifying over A-state (e.g.
    # "∃ m ∈ msgs") enumerates through f.
    def _wrap_domain(domain_fn):
        frozen_new = frozenset(new_vars)

        def fn(constants: Mapping, state: State):
            mapped = port.state_map(state.restrict(target_vars))
            return domain_fn(constants, _CombinedView(state, mapped, frozen_new))

        return fn

    existing = {action.name for action in actions}
    for a_action in diff.added:
        if a_action.name in existing:
            raise PortingError(
                f"added action {a_action.name!r} collides with a target action name"
            )
        actions.append(Action(
            name=a_action.name,
            params={p: _wrap_domain(d) for p, d in a_action.params.items()},
            clauses=tuple(
                _translate_clause(clause, port, target_vars, new_vars)
                for clause in a_action.clauses
            ),
        ))

    constants = dict(optimized.constants)
    constants.update(target.constants)

    return SpecMachine(
        name=name or f"{target.name}-ported-{optimized.name}",
        variables=ported_vars,
        constants=constants,
        init=ported_init,
        actions=actions,
    )


def ported_to_optimized_mapping(port: PortSpec, base: SpecMachine,
                                optimized: SpecMachine,
                                target: SpecMachine) -> RefinementMapping:
    """The Figure 5 mapping B∆ ⇒ A∆: f on B's variables, identity on the
    optimization's new variables."""
    new_vars = tuple(v for v in optimized.variables if v not in base.variables)
    target_vars = tuple(target.variables)

    def state_map(state: State) -> State:
        mapped = port.state_map(state.restrict(target_vars))
        values = dict(mapped)
        for var in new_vars:
            values[var] = state[var]
        return State(values)

    return RefinementMapping(
        name=f"{port.state_map.name}+identity-on-delta", state_map=state_map,
    )


def ported_to_target_mapping(target: SpecMachine) -> RefinementMapping:
    """The Figure 5 mapping B∆ ⇒ B: drop the new variables."""
    return projection_mapping(f"drop-delta-vars->{target.name}", target.variables)
