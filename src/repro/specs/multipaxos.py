"""MultiPaxos, finite specification (Appendix B.1).

Faithful to Figure 1 / Appendix B.1 with three deliberate clean-ups, each
documented in DESIGN.md:

* **Proposer-owned ballots.**  Ballot b belongs to acceptor `b mod n`; only
  the owner runs phase 1 / proposes at b.  (The appendix uses plain natural
  ballots shared by all proposers, which would let two leaders coexist at
  one ballot; real MultiPaxos deployments use the `b mod n` scheme.)
* **One value per ballot at the source.**  `Propose` refuses a second value
  for the same (instance, ballot) — the OneValuePerBallot invariant holds
  by construction instead of only being checked.
* **No commit state.**  Chosen-ness is derived from the `votes` history
  variable (`ChosenAt`), exactly as the appendix's `chosen` definition.

State:
  ballot[a]   - highestBallot
  leader[a]   - phase1Succeeded
  logs[a]     - FMap index -> (bal, val); (-1, None) when empty
  votes[a]    - frozenset of (index, bal, val) ever accepted by a
  proposed    - frozenset of (index, bal, val) proposed in phase 2
  msgs1a      - frozenset of (proposer, bal)
  msgs1b      - frozenset of (acceptor, bal, log snapshot)
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Tuple

from repro.core.action import Action, Clause
from repro.core.machine import SpecMachine
from repro.core.state import FMap, State, fmap_const

EMPTY_ENTRY = (-1, None)


def default_config(n: int = 3, values: Tuple[str, ...] = ("a", "b"),
                   max_ballot: int = 2, max_index: int = 0) -> Dict[str, Any]:
    """Finite-instance constants.  Indexes run 0..max_index, ballots
    1..max_ballot (0 is the pre-phase-1 floor)."""
    return {
        "acceptors": tuple(f"p{i}" for i in range(n)),
        "values": tuple(values),
        "max_ballot": max_ballot,
        "max_index": max_index,
    }


def owner(constants: Dict[str, Any], ballot: int) -> str:
    acceptors = constants["acceptors"]
    return acceptors[ballot % len(acceptors)]


def majority(constants: Dict[str, Any]) -> int:
    return len(constants["acceptors"]) // 2 + 1


# -- domains -----------------------------------------------------------------

def _acceptors(c, s):
    return c["acceptors"]


def _ballots(c, s):
    return range(1, c["max_ballot"] + 1)


def _indexes(c, s):
    return range(c["max_index"] + 1)


def _values(c, s):
    return c["values"]


def _msgs1a(c, s):
    return s["msgs1a"]


def quorum_candidates(msgs1b) -> list:
    """Subsets of 1b messages `(sender, ballot, ...)` with one ballot and
    distinct senders — what a BecomeLeader can count.  Enumerating per
    ballot keeps this small."""
    by_ballot: Dict[int, list] = {}
    for msg in msgs1b:
        by_ballot.setdefault(msg[1], []).append(msg)
    result = []
    for _ballot, msgs in sorted(by_ballot.items()):
        for size in range(1, len(msgs) + 1):
            for combo in itertools.combinations(sorted(msgs), size):
                if len({m[0] for m in combo}) == len(combo):  # distinct senders
                    result.append(frozenset(combo))
    return result


def _promise_sets(c, s):
    return quorum_candidates(s["msgs1b"])


def _proposed(c, s):
    return s["proposed"]


# -- helpers --------------------------------------------------------------------

def merge_logs(constants, own_log: FMap, snapshots: Iterable[FMap]) -> FMap:
    """Phase1Succeed's safe-value selection: per index, the highest-ballot
    entry among the quorum's reports and the proposer's own log."""
    merged = {}
    for index in range(constants["max_index"] + 1):
        best = own_log[index]
        for snapshot in snapshots:
            entry = snapshot[index]
            if entry[0] > best[0]:
                best = entry
        merged[index] = best
    return FMap(merged)


def log_tail(constants, log: FMap) -> int:
    tail = -1
    for index in range(constants["max_index"] + 1):
        if log[index] != EMPTY_ENTRY:
            tail = max(tail, index)
    return tail


# -- clauses / actions ---------------------------------------------------------------

def _mk(name, kind, fn, var=None) -> Clause:
    return Clause(name=name, kind=kind, fn=fn, var=var)


def build(constants: Dict[str, Any]) -> SpecMachine:
    """Construct the MultiPaxos machine for the given finite constants."""
    maj = majority(constants)

    increase_ballot = Action(
        name="IncreaseHighestBallot",
        params={"a": _acceptors, "b": _ballots},
        clauses=(
            _mk("ballot-is-higher", "guard",
                lambda s, p: p["b"] > s["ballot"][p["a"]]),
            _mk("adopt-ballot", "update",
                lambda s, p: s["ballot"].set(p["a"], p["b"]), var="ballot"),
            _mk("drop-leadership", "update",
                lambda s, p: s["leader"].set(p["a"], False), var="leader"),
        ),
    )

    phase1a = Action(
        name="Phase1a",
        params={"a": _acceptors},
        clauses=(
            _mk("not-leader", "guard", lambda s, p: not s["leader"][p["a"]]),
            _mk("owns-ballot", "guard",
                lambda s, p: owner(constants, s["ballot"][p["a"]]) == p["a"]
                and s["ballot"][p["a"]] >= 1),
            _mk("send-1a", "update",
                lambda s, p: s["msgs1a"] | {(p["a"], s["ballot"][p["a"]])},
                var="msgs1a"),
        ),
    )

    phase1b = Action(
        name="Phase1b",
        params={"a": _acceptors, "m": _msgs1a},
        clauses=(
            _mk("1a-ballot-higher", "guard",
                lambda s, p: p["m"][1] > s["ballot"][p["a"]]),
            _mk("adopt-1a-ballot", "update",
                lambda s, p: s["ballot"].set(p["a"], p["m"][1]), var="ballot"),
            _mk("1b-drop-leadership", "update",
                lambda s, p: s["leader"].set(p["a"], False), var="leader"),
            _mk("send-1b", "update",
                lambda s, p: s["msgs1b"] | {(p["a"], p["m"][1], s["logs"][p["a"]])},
                var="msgs1b"),
        ),
    )

    become_leader = Action(
        name="BecomeLeader",
        params={"a": _acceptors, "S": _promise_sets},
        clauses=(
            _mk("not-yet-leader", "guard", lambda s, p: not s["leader"][p["a"]]),
            _mk("promises-match-ballot", "guard",
                lambda s, p: all(m[1] == s["ballot"][p["a"]] for m in p["S"])
                and len(p["S"]) > 0),
            _mk("owns-promised-ballot", "guard",
                lambda s, p: owner(constants, s["ballot"][p["a"]]) == p["a"]),
            _mk("quorum-with-self", "guard",
                lambda s, p: len({m[0] for m in p["S"]} | {p["a"]}) >= maj),
            _mk("merge-safe-values", "update",
                lambda s, p: s["logs"].set(p["a"], merge_logs(
                    constants, s["logs"][p["a"]], [m[2] for m in p["S"]])),
                var="logs"),
            _mk("become-leader", "update",
                lambda s, p: s["leader"].set(p["a"], True), var="leader"),
        ),
    )

    propose = Action(
        name="Propose",
        params={"a": _acceptors, "i": _indexes, "v": _values},
        clauses=(
            _mk("is-leader", "guard", lambda s, p: s["leader"][p["a"]]),
            _mk("value-safe-at-instance", "guard",
                lambda s, p: s["logs"][p["a"]][p["i"]][1] in (p["v"], None)),
            _mk("dense-proposals", "guard",
                lambda s, p: p["i"] <= log_tail(constants, s["logs"][p["a"]]) + 1),
            _mk("one-value-per-ballot", "guard",
                lambda s, p: not any(
                    t[0] == p["i"] and t[1] == s["ballot"][p["a"]] and t[2] != p["v"]
                    for t in s["proposed"])),
            _mk("add-proposal", "update",
                lambda s, p: s["proposed"] | {(p["i"], s["ballot"][p["a"]], p["v"])},
                var="proposed"),
        ),
    )

    accept = Action(
        name="Accept",
        params={"a": _acceptors, "pv": _proposed},
        clauses=(
            _mk("accept-ballot-ok", "guard",
                lambda s, p: p["pv"][1] >= s["ballot"][p["a"]]),
            _mk("accept-adopt-ballot", "update",
                lambda s, p: s["ballot"].set(p["a"], p["pv"][1]), var="ballot"),
            _mk("accept-maybe-demote", "update",
                lambda s, p: s["leader"].set(p["a"], False)
                if p["pv"][1] > s["ballot"][p["a"]] else s["leader"],
                var="leader"),
            _mk("record-vote", "update",
                lambda s, p: s["votes"].set(
                    p["a"], s["votes"][p["a"]] | {p["pv"]}),
                var="votes"),
            _mk("write-log", "update",
                lambda s, p: s["logs"].set(p["a"], s["logs"][p["a"]].set(
                    p["pv"][0], (p["pv"][1], p["pv"][2]))),
                var="logs"),
        ),
    )

    def init(c) -> Iterable[State]:
        empty_log = fmap_const(range(c["max_index"] + 1), EMPTY_ENTRY)
        yield State({
            "ballot": fmap_const(c["acceptors"], 0),
            "leader": fmap_const(c["acceptors"], False),
            "logs": fmap_const(c["acceptors"], empty_log),
            "votes": fmap_const(c["acceptors"], frozenset()),
            "proposed": frozenset(),
            "msgs1a": frozenset(),
            "msgs1b": frozenset(),
        })

    return SpecMachine(
        name="MultiPaxos",
        variables=("ballot", "leader", "logs", "votes", "proposed",
                   "msgs1a", "msgs1b"),
        constants=constants,
        init=init,
        actions=[increase_ballot, phase1a, phase1b, become_leader, propose, accept],
    )


# -- derived notions + invariants -----------------------------------------------------

def chosen_values(state: State, constants) -> Dict[int, set]:
    """ChosenAt: values voted for by a quorum at the same ballot."""
    maj = majority(constants)
    tally: Dict[Tuple[int, int, Any], set] = {}
    for acceptor in constants["acceptors"]:
        for vote in state["votes"][acceptor]:
            tally.setdefault(vote, set()).add(acceptor)
    result: Dict[int, set] = {}
    for (index, _ballot, value), voters in tally.items():
        if len(voters) >= maj:
            result.setdefault(index, set()).add(value)
    return result


def agreement(state: State, constants) -> bool:
    """At most one value is ever chosen per instance."""
    return all(len(vals) <= 1 for vals in chosen_values(state, constants).values())


def one_value_per_ballot(state: State, constants) -> bool:
    seen: Dict[Tuple[int, int], Any] = {}
    for acceptor in constants["acceptors"]:
        for index, ballot, value in state["votes"][acceptor]:
            key = (index, ballot)
            if key in seen and seen[key] != value:
                return False
            seen[key] = value
    return True


INVARIANTS = {
    "agreement": agreement,
    "one-value-per-ballot": one_value_per_ballot,
}
