"""Coordinated Paxos — Mencius' substrate (Appendix B.5) — as a
non-mutating optimization of MultiPaxos.

Mencius partitions instances round-robin: acceptor `i mod n` is instance
i's *default leader*.  The optimization adds skip machinery:

New variables
  skipTags         - skipTags[a][i]: a believes instance i is a default no-op
  executable       - executable[a]: (i, v) pairs a may execute before commit
  proposedDefaults - proposals made by an instance's default leader
                     (B.5 widens `proposedValues` with an `isDefault` flag;
                     widening a base variable would be a mutation, so the
                     flag lives in a parallel new set)
  skipMsgs         - skip tags attached to 1b messages (B.5 widens msgs1b;
                     same treatment)

Modified subactions (Case-3 material for the port):
  Propose      + guard: only the default leader proposes real values (a
                 recovery leader may only propose no-op or re-propose an
                 already-accepted value), and never over its own skip
               + update: track default-leader proposals; a default leader
                 proposing no-op marks its own skip tag immediately
  Accept       + update: accepting a default leader's no-op sets the skip
                 tag and makes the instance executable without phase 2
                 (Figure 14 Phase2b lines 26-29)
  Phase1b      + update: attach skip tags to the promise (Figure 14 line 3)
  BecomeLeader + update: adopt the skip tags reported alongside the safe
                 values (Figure 14 Phase1Succeed lines 9-10)

The headline invariant: an executable no-op can never conflict with a
chosen real value (`executable_consistent`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from repro.core.action import Clause
from repro.core.machine import SpecMachine
from repro.core.state import State, fmap_const
from repro.specs import multipaxos as mp

NOP = "nop"
NEW_VARIABLES = ("skipTags", "executable", "proposedDefaults", "skipMsgs")


def default_config(n: int = 3, values: Tuple[str, ...] = (NOP, "v"),
                   max_ballot: int = 2, max_index: int = 1) -> Dict[str, Any]:
    if NOP not in values:
        raise ValueError("Mencius needs the no-op value in the value set")
    return mp.default_config(n=n, values=values, max_ballot=max_ballot,
                             max_index=max_index)


def instance_owner(constants, index: int) -> str:
    return constants["acceptors"][index % len(constants["acceptors"])]


def _mk(name, kind, fn, var=None) -> Clause:
    return Clause(name=name, kind=kind, fn=fn, var=var)


# -- the added clauses ---------------------------------------------------------

def propose_clauses(constants) -> Tuple[Clause, ...]:
    def allowed(s, p) -> bool:
        a, i, v = p["a"], p["i"], p["v"]
        if s["skipTags"][a][i] and v != NOP:
            return False  # never propose a real value over our own skip
        if instance_owner(constants, i) == a:
            return True  # the default leader proposes freely
        # A recovery leader proposes no-op, or re-proposes a value it
        # learned in phase 1 (already in its own log).
        return v == NOP or s["logs"][a][i][1] == v

    def track_defaults(s, p):
        a, i, v = p["a"], p["i"], p["v"]
        if instance_owner(constants, i) != a:
            return s["proposedDefaults"]
        return s["proposedDefaults"] | {(i, s["ballot"][a], v)}

    def own_skip(s, p):
        a, i, v = p["a"], p["i"], p["v"]
        if instance_owner(constants, i) == a and v == NOP:
            return s["skipTags"].set(a, s["skipTags"][a].set(i, True))
        return s["skipTags"]

    return (
        _mk("mencius-coordinated-propose", "guard", allowed),
        _mk("mencius-track-defaults", "update", track_defaults, var="proposedDefaults"),
        _mk("mencius-own-skip", "update", own_skip, var="skipTags"),
    )


def accept_clauses(constants) -> Tuple[Clause, ...]:
    def skip_on_default_nop(s, p):
        a, pv = p["a"], p["pv"]
        if pv[2] == NOP and pv in s["proposedDefaults"]:
            return s["skipTags"].set(a, s["skipTags"][a].set(pv[0], True))
        return s["skipTags"]

    def executable_on_default_nop(s, p):
        a, pv = p["a"], p["pv"]
        if pv[2] == NOP and pv in s["proposedDefaults"]:
            return s["executable"].set(a, s["executable"][a] | {(pv[0], pv[2])})
        return s["executable"]

    return (
        _mk("mencius-skip-on-nop", "update", skip_on_default_nop, var="skipTags"),
        _mk("mencius-executable-on-nop", "update", executable_on_default_nop,
            var="executable"),
    )


def phase1b_clauses(constants) -> Tuple[Clause, ...]:
    def attach_tags(s, p):
        a, m = p["a"], p["m"]
        return s["skipMsgs"] | {(a, m[1], s["skipTags"][a])}

    return (
        _mk("mencius-attach-skiptags", "update", attach_tags, var="skipMsgs"),
    )


def become_leader_clauses(constants) -> Tuple[Clause, ...]:
    max_index = constants["max_index"]

    def merge_tags(s, p):
        a, S = p["a"], p["S"]
        tags = s["skipTags"][a]
        for index in range(max_index + 1):
            best_bal = s["logs"][a][index][0]
            best_src = None
            for msg in S:
                entry = msg[2][index]
                if entry[0] > best_bal:
                    best_bal = entry[0]
                    best_src = (msg[0], msg[1])
            if best_src is None:
                continue
            for acc, bal, tag_map in s["skipMsgs"]:
                if (acc, bal) == best_src and tag_map[index]:
                    tags = tags.set(index, True)
        return s["skipTags"].set(a, tags)

    return (
        _mk("mencius-merge-skiptags", "update", merge_tags, var="skipTags"),
    )


def build(constants: Dict[str, Any]) -> SpecMachine:
    base = mp.build(constants)
    by_name = {action.name: action for action in base.actions}

    actions = [
        by_name["IncreaseHighestBallot"],
        by_name["Phase1a"],
        by_name["Phase1b"].with_clauses(phase1b_clauses(constants)),
        by_name["BecomeLeader"].with_clauses(become_leader_clauses(constants)),
        by_name["Propose"].with_clauses(propose_clauses(constants)),
        by_name["Accept"].with_clauses(accept_clauses(constants)),
    ]

    def init(c) -> Iterable[State]:
        no_tags = fmap_const(range(c["max_index"] + 1), False)
        for base_state in base.init(c):
            yield base_state.assign({
                "skipTags": fmap_const(c["acceptors"], no_tags),
                "executable": fmap_const(c["acceptors"], frozenset()),
                "proposedDefaults": frozenset(),
                "skipMsgs": frozenset(),
            })

    return SpecMachine(
        name="CoordinatedPaxos",
        variables=base.variables + NEW_VARIABLES,
        constants=constants,
        init=init,
        actions=actions,
    )


# -- invariants ------------------------------------------------------------------

def executable_consistent(state: State, constants) -> bool:
    """An executable entry never conflicts with a chosen value: learning a
    default no-op without phase 2 is safe."""
    chosen = mp.chosen_values(state, constants)
    for acceptor in constants["acceptors"]:
        for index, value in state["executable"][acceptor]:
            for chosen_value in chosen.get(index, set()):
                if chosen_value != value:
                    return False
    return True


def skip_tags_sound(state: State, constants) -> bool:
    """A skip tag at the instance's own default leader implies the leader
    proposed (or adopted) the no-op there — it will never propose a real
    value at that instance (the guard enforces it; this checks the tag's
    provenance)."""
    for acceptor in constants["acceptors"]:
        for index in range(constants["max_index"] + 1):
            if not state["skipTags"][acceptor][index]:
                continue
            owner = instance_owner(constants, index)
            nop_seen = any(
                t[0] == index and t[2] == NOP for t in state["proposedDefaults"]
            )
            if not nop_seen:
                return False
    return True


MENCIUS_INVARIANTS = {
    "executable-consistent": executable_consistent,
    "skip-tags-sound": skip_tags_sound,
}
