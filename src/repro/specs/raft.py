"""Plain Raft, finite specification — the §3 negative result.

Raft differs from Raft* in exactly the two ways §3 identifies, and each one
breaks the direct refinement to MultiPaxos:

1. **Erasing.**  A follower whose log is longer than the leader's append
   erases the extra entries.  Mapped to MultiPaxos, an acceptor would be
   deleting a previously accepted value — no Paxos action does that.
2. **Immutable terms.**  A new leader replicates old entries with their
   original terms; the mapped step writes an instance at a ballot *below*
   the acceptor's current ballot, which Paxos' `Accept` guard forbids.

`tests/specs/test_raft_negative.py` runs `check_refinement` on this machine
and asserts that it FAILS, with a counterexample exercising the erasing
step — the mechanical version of the paper's argument for why Raft* is
needed.

The spec shares the structure (and clause implementations where behaviour
coincides) of `specs.raftstar`; the differences:

* vote replies carry no log (no extras), BecomeLeader merges nothing;
* `AcceptEntries` has no `no-erase` guard and replaces the whole log with
  the message's entries (which keep their original terms);
* `ProposeEntries` stamps only the new entry with the current term; earlier
  entries keep their terms (no ballot rewriting).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from repro.core.action import Action, Clause
from repro.core.machine import SpecMachine
from repro.core.refinement import RefinementMapping
from repro.core.state import FMap, State, fmap_const
from repro.specs import multipaxos as mp
from repro.specs.raftstar import last_bal, log_as_instances, up_to_date

EMPTY_ENTRY = mp.EMPTY_ENTRY


def default_config(**kwargs) -> Dict[str, Any]:
    return mp.default_config(**kwargs)


def _acceptors(c, s):
    return c["acceptors"]


def _terms(c, s):
    return range(1, c["max_ballot"] + 1)


def _values(c, s):
    return c["values"]


def _vmsgs1a(c, s):
    return s["vmsgs1a"]


def _pmsgs(c, s):
    return s["pmsgs"]


def _vote_sets(c, s):
    import itertools

    by_term: Dict[int, list] = {}
    for msg in s["vmsgs1b"]:
        by_term.setdefault(msg[1], []).append(msg)
    result = []
    for _term, msgs in sorted(by_term.items()):
        for size in range(1, len(msgs) + 1):
            for combo in itertools.combinations(sorted(msgs), size):
                if len({m[0] for m in combo}) == len(combo):
                    result.append(frozenset(combo))
    return result


def _mk(name, kind, fn, var=None) -> Clause:
    return Clause(name=name, kind=kind, fn=fn, var=var)


def build(constants: Dict[str, Any]) -> SpecMachine:
    maj = mp.majority(constants)
    max_index = constants["max_index"]

    increase_term = Action(
        name="IncreaseTerm",
        params={"a": _acceptors, "t": _terms},
        clauses=(
            _mk("term-is-higher", "guard", lambda s, p: p["t"] > s["term"][p["a"]]),
            _mk("adopt-term", "update",
                lambda s, p: s["term"].set(p["a"], p["t"]), var="term"),
            _mk("drop-leadership", "update",
                lambda s, p: s["isleader"].set(p["a"], False), var="isleader"),
        ),
    )

    request_vote = Action(
        name="RequestVote",
        params={"a": _acceptors},
        clauses=(
            _mk("not-leader", "guard", lambda s, p: not s["isleader"][p["a"]]),
            _mk("owns-term", "guard",
                lambda s, p: mp.owner(constants, s["term"][p["a"]]) == p["a"]
                and s["term"][p["a"]] >= 1),
            _mk("send-requestvote", "update",
                lambda s, p: s["vmsgs1a"] | {(
                    p["a"], s["term"][p["a"]],
                    len(s["rlog"][p["a"]]) - 1, last_bal(s["rlog"][p["a"]]),
                )},
                var="vmsgs1a"),
        ),
    )

    receive_vote = Action(
        name="ReceiveVote",
        params={"a": _acceptors, "m": _vmsgs1a},
        clauses=(
            _mk("vote-term-higher", "guard",
                lambda s, p: p["m"][1] > s["term"][p["a"]]),
            _mk("candidate-up-to-date", "guard",
                lambda s, p: up_to_date(p["m"][2], p["m"][3], s["rlog"][p["a"]])),
            _mk("adopt-vote-term", "update",
                lambda s, p: s["term"].set(p["a"], p["m"][1]), var="term"),
            _mk("vote-drop-leadership", "update",
                lambda s, p: s["isleader"].set(p["a"], False), var="isleader"),
            # Plain Raft: the reply carries no extra entries.  The voter's
            # log at grant time is recorded as a *history* component (not
            # transmitted, never read by BecomeLeader) purely so the mapped
            # Paxos prepareOK message is well-formed.
            _mk("send-vote-reply", "update",
                lambda s, p: s["vmsgs1b"] | {(p["a"], p["m"][1], s["rlog"][p["a"]])},
                var="vmsgs1b"),
        ),
    )

    become_leader = Action(
        name="BecomeLeader",
        params={"a": _acceptors, "S": _vote_sets},
        clauses=(
            _mk("not-yet-leader", "guard", lambda s, p: not s["isleader"][p["a"]]),
            _mk("votes-match-term", "guard",
                lambda s, p: all(m[1] == s["term"][p["a"]] for m in p["S"])
                and len(p["S"]) > 0),
            _mk("owns-voted-term", "guard",
                lambda s, p: mp.owner(constants, s["term"][p["a"]]) == p["a"]),
            _mk("vote-quorum-with-self", "guard",
                lambda s, p: len({m[0] for m in p["S"]} | {p["a"]}) >= maj),
            # Plain Raft: no safe-value merge; the candidate's log stands.
            _mk("become-leader", "update",
                lambda s, p: s["isleader"].set(p["a"], True), var="isleader"),
        ),
    )

    propose_entries = Action(
        name="ProposeEntries",
        params={"a": _acceptors, "v": _values},
        clauses=(
            _mk("is-leader", "guard", lambda s, p: s["isleader"][p["a"]]),
            _mk("log-has-room", "guard",
                lambda s, p: len(s["rlog"][p["a"]]) <= max_index),
            # Plain Raft: the append replicates the leader's log verbatim —
            # old entries keep their original terms.
            _mk("send-append", "update",
                lambda s, p: s["pmsgs"] | {(
                    s["term"][p["a"]],
                    s["rlog"][p["a"]] + ((s["term"][p["a"]], p["v"]),),
                )},
                var="pmsgs"),
        ),
    )

    accept_entries = Action(
        name="AcceptEntries",
        params={"a": _acceptors, "pe": _pmsgs},
        clauses=(
            _mk("append-term-ok", "guard",
                lambda s, p: p["pe"][0] >= s["term"][p["a"]]),
            # NOTE: no 'no-erase' guard — the follower matches the leader's
            # log even when its own log is longer (the erasing step).
            _mk("adopt-append-term", "update",
                lambda s, p: s["term"].set(p["a"], p["pe"][0]), var="term"),
            _mk("append-maybe-demote", "update",
                lambda s, p: s["isleader"].set(p["a"], False)
                if p["pe"][0] > s["term"][p["a"]] else s["isleader"],
                var="isleader"),
            _mk("replace-log", "update",
                lambda s, p: s["rlog"].set(p["a"], p["pe"][1]), var="rlog"),
            _mk("record-votes", "update",
                lambda s, p: s["votes"].set(p["a"], s["votes"][p["a"]] | {
                    (j, entry[0], entry[1])
                    for j, entry in enumerate(p["pe"][1])
                }),
                var="votes"),
        ),
    )

    def init(c) -> Iterable[State]:
        yield State({
            "term": fmap_const(c["acceptors"], 0),
            "isleader": fmap_const(c["acceptors"], False),
            "rlog": fmap_const(c["acceptors"], ()),
            "votes": fmap_const(c["acceptors"], frozenset()),
            "vmsgs1a": frozenset(),
            "vmsgs1b": frozenset(),
            "pmsgs": frozenset(),
        })

    return SpecMachine(
        name="Raft",
        variables=("term", "isleader", "rlog", "votes",
                   "vmsgs1a", "vmsgs1b", "pmsgs"),
        constants=constants,
        init=init,
        actions=[increase_term, request_vote, receive_vote, become_leader,
                 propose_entries, accept_entries],
    )


def raft_to_multipaxos(constants) -> RefinementMapping:
    """The Figure-3-style mapping attempted on plain Raft.  Plain Raft has
    no `proposed` variable; the mapped `proposed` is reconstructed as every
    (index, term, value) occurring in any append message — the most generous
    reading.  The refinement still fails (that is the point)."""

    def state_map(state: State) -> State:
        acceptors = constants["acceptors"]
        proposed = set()
        for term, entries in state["pmsgs"]:
            for index, entry in enumerate(entries):
                proposed.add((index, entry[0], entry[1]))
        return State({
            "ballot": state["term"],
            "leader": state["isleader"],
            "logs": FMap({
                a: log_as_instances(constants, state["rlog"][a]) for a in acceptors
            }),
            "votes": state["votes"],
            "proposed": frozenset(proposed),
            "msgs1a": frozenset((m[0], m[1]) for m in state["vmsgs1a"]),
            "msgs1b": frozenset(
                (m[0], m[1], log_as_instances(constants, m[2]))
                for m in state["vmsgs1b"]
            ),
        })

    return RefinementMapping(name="figure-3-on-plain-raft", state_map=state_map)
