"""Classifying optimizations (§4.2).

Given a base protocol A and an optimized protocol A∆ (sharing clause
objects, as one shares text when editing a TLA+ spec), `diff_optimization`
splits A∆'s subactions into:

* **added** — no subaction of the same name exists in A, or the derivation
  deleted one of A's conjuncts (footnote 2: such a subaction must be viewed
  as added);
* **unchanged** — identical clause set to A's subaction;
* **modified** — A's clauses plus extra conjuncts.

The optimization is **non-mutating** when no added subaction and no added
clause of a modified subaction *updates* a variable of A.  (Added guard
clauses over A's variables are fine — Figure 4c's `table[k] = {}` is one.)
Non-mutating optimizations refine A under the projection mapping that drops
the new variables, which is what makes the §4.3 port automatically correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.action import Action, Clause
from repro.core.machine import SpecMachine


@dataclass
class ModifiedAction:
    base: Action
    optimized: Action
    added_clauses: Tuple[Clause, ...]


@dataclass
class OptimizationDiff:
    base: SpecMachine
    optimized: SpecMachine
    new_variables: Tuple[str, ...]
    added: List[Action] = field(default_factory=list)
    unchanged: List[Action] = field(default_factory=list)
    modified: List[ModifiedAction] = field(default_factory=list)

    def mutating_writes(self) -> List[str]:
        """Descriptions of every place the optimization writes a base
        variable (empty list == non-mutating)."""
        base_vars = set(self.base.variables)
        problems = []
        for action in self.added:
            for clause in action.updates:
                if clause.var in base_vars:
                    problems.append(
                        f"added action {action.name!r} writes base variable "
                        f"{clause.var!r} (clause {clause.name!r})"
                    )
        for mod in self.modified:
            for clause in mod.added_clauses:
                if clause.kind == "update" and clause.var in base_vars:
                    problems.append(
                        f"modified action {mod.optimized.name!r} adds clause "
                        f"{clause.name!r} writing base variable {clause.var!r}"
                    )
        return problems

    @property
    def non_mutating(self) -> bool:
        return not self.mutating_writes()

    def summary(self) -> str:
        kind = "non-mutating" if self.non_mutating else "MUTATING"
        return (
            f"{self.optimized.name} vs {self.base.name}: {kind}; "
            f"+{len(self.added)} added, {len(self.unchanged)} unchanged, "
            f"{len(self.modified)} modified subactions; "
            f"new vars {list(self.new_variables)}"
        )


def diff_optimization(base: SpecMachine, optimized: SpecMachine) -> OptimizationDiff:
    """Compute the A vs A∆ diff."""
    missing = set(base.variables) - set(optimized.variables)
    if missing:
        raise ValueError(
            f"{optimized.name} drops base variables {sorted(missing)}; "
            f"an optimization must keep all of {base.name}'s state"
        )
    new_vars = tuple(v for v in optimized.variables if v not in base.variables)

    base_actions = {action.name: action for action in base.actions}
    diff = OptimizationDiff(base=base, optimized=optimized, new_variables=new_vars)

    for action in optimized.actions:
        counterpart = base_actions.get(action.name)
        if counterpart is None:
            diff.added.append(action)
            continue
        base_clauses = set(counterpart.clauses)
        opt_clauses = set(action.clauses)
        if base_clauses == opt_clauses:
            diff.unchanged.append(action)
        elif base_clauses <= opt_clauses:
            added = tuple(c for c in action.clauses if c not in base_clauses)
            diff.modified.append(ModifiedAction(
                base=counterpart, optimized=action, added_clauses=added,
            ))
        else:
            # Footnote 2: deleting a conjunct makes it an added subaction.
            diff.added.append(action)
    return diff
