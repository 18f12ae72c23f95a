"""Flexible Paxos (Howard et al. 2016) — the §4.4 generalization claim.

Flexible Paxos relaxes MultiPaxos' majority rule: phase-1 quorums (Q1) and
phase-2 quorums (Q2) may be any sets as long as every Q1 intersects every
Q2.  The paper's Figure 6 places it in its own box: **Paxos refines
Flexible Paxos but not the other way around**, which is why a non-mutating
optimization of Flexible Paxos (WPaxos) can be ported *to* Paxos.

Both directions are mechanically checkable here:

* instantiate Flexible Paxos with Q1 = Q2 = majorities, and MultiPaxos
  refines it under the identity mapping (`test_paxos_refines_flexpaxos`);
* instantiate it with singleton phase-1 quorums (legal: they intersect
  full-set phase-2 quorums) and the reverse check fails — a
  single-promise `BecomeLeader` has no MultiPaxos counterpart.

The spec reuses `specs.multipaxos` wholesale and replaces exactly two
things: the phase-1 quorum guard and the (derived) chosen-ness notion.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Tuple

from repro.core.action import Clause
from repro.core.machine import SpecMachine
from repro.core.refinement import RefinementMapping
from repro.core.state import State
from repro.specs import multipaxos as mp


def majorities(acceptors: Tuple[str, ...]) -> FrozenSet[FrozenSet[str]]:
    need = len(acceptors) // 2 + 1
    return frozenset(
        frozenset(combo)
        for size in range(need, len(acceptors) + 1)
        for combo in itertools.combinations(acceptors, size)
    )


def singletons(acceptors: Tuple[str, ...]) -> FrozenSet[FrozenSet[str]]:
    return frozenset(frozenset({a}) for a in acceptors)


def full_set(acceptors: Tuple[str, ...]) -> FrozenSet[FrozenSet[str]]:
    return frozenset({frozenset(acceptors)})


def default_config(q1=None, q2=None, **kwargs) -> Dict[str, Any]:
    """MultiPaxos constants plus explicit quorum systems.  Defaults to the
    majority instantiation (the configuration Paxos refines)."""
    config = mp.default_config(**kwargs)
    acceptors = config["acceptors"]
    config["q1"] = q1 if q1 is not None else majorities(acceptors)
    config["q2"] = q2 if q2 is not None else majorities(acceptors)
    for one in config["q1"]:
        for two in config["q2"]:
            if not (one & two):
                raise ValueError(
                    f"invalid Flexible Paxos quorums: {set(one)} does not "
                    f"intersect {set(two)}"
                )
    return config


def build(constants: Dict[str, Any]) -> SpecMachine:
    """Flexible Paxos = MultiPaxos with the phase-1 quorum guard replaced."""
    q1 = constants["q1"]
    return mp.build(constants).derive("FlexiblePaxos", {
        "quorum-with-self": Clause(
            "phase1-quorum-in-Q1", "guard",
            lambda s, p: any(quorum <= {m[0] for m in p["S"]} | {p["a"]}
                             for quorum in q1)),
    })


# -- derived chosen-ness over Q2 and the safety invariant -----------------------

def chosen_values(state: State, constants) -> Dict[int, set]:
    """ChosenAt over phase-2 quorums."""
    tally: Dict[Tuple[int, int, Any], set] = {}
    for acceptor in constants["acceptors"]:
        for vote in state["votes"][acceptor]:
            tally.setdefault(vote, set()).add(acceptor)
    result: Dict[int, set] = {}
    for (index, _ballot, value), voters in tally.items():
        if any(quorum <= frozenset(voters) for quorum in constants["q2"]):
            result.setdefault(index, set()).add(value)
    return result


def agreement(state: State, constants) -> bool:
    return all(len(vals) <= 1 for vals in chosen_values(state, constants).values())


INVARIANTS = {"agreement-q2": agreement}


def identity_mapping() -> RefinementMapping:
    """MultiPaxos and Flexible Paxos share their entire state space."""
    return RefinementMapping(name="identity", state_map=lambda s: s)
