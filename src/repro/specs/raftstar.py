"""Raft*, finite specification (Appendix B.2), and the Figure 3 refinement
mapping onto MultiPaxos.

The spec mirrors Figure 2 (including the blue Raft* additions) with the
simplifications Appendix B/C themselves adopt, documented in DESIGN.md:

* vote replies carry the voter's **full log** (Appendix C: "without loss of
  generality, we can still assume Raft* includes the full log");
* append messages carry the **full log prefix** 0..lIndex, so one
  AppendEntries step maps to a bounded sequence of Paxos Propose/Accept
  steps (the paper's stuttering argument, Appendix C 2.4/2.5);
* the per-entry ballot *is* the Paxos-mapped ballot (`logBallot` in B.2);
  merged safe entries keep their reported ballot until re-accepted, exactly
  as B.2's `UpdateLog` writes `logBallot' = reported ballot`;
* terms are proposer-owned (`t mod n`), matching the ballot discipline of
  our MultiPaxos spec.

This module is the only statement of the clauses Raft and Raft* share:
`repro.specs.raft` is this machine minus Figure 2's blue text (`raft.BLUE`
lists it by clause name) and demonstrates §3's negative result.

State:
  term[a]     - currentTerm          (maps to ballot)
  isleader[a] - leader flag          (maps to phase1Succeeded)
  rlog[a]     - tuple of (bal, val)  (maps to instances; index = position)
  votes[a]    - history of (index, bal, val) acceptances (maps to votes)
  proposed    - (index, bal, val) proposals      (maps to proposedValues)
  vmsgs1a     - (candidate, term, last_index, last_bal)   (maps to msgs1a)
  vmsgs1b     - (voter, term, log tuple)                  (maps to msgs1b)
  pmsgs       - append messages (term, entries tuple); dropped by the mapping
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from repro.core.action import Action, Clause
from repro.core.machine import SpecMachine
from repro.core.refinement import RefinementMapping
from repro.core.state import FMap, State, fmap_const
from repro.specs import multipaxos as mp
from repro.specs.mapping import SPEC_CORRESPONDENCE

EMPTY_ENTRY = mp.EMPTY_ENTRY


def default_config(**kwargs) -> Dict[str, Any]:
    return mp.default_config(**kwargs)


# -- domains ------------------------------------------------------------------

# The constant domains are MultiPaxos's (a term is a ballot).
_acceptors, _terms, _values = mp._acceptors, mp._ballots, mp._values


def _vmsgs1a(c, s):
    return s["vmsgs1a"]


def _pmsgs(c, s):
    return s["pmsgs"]


def _vote_sets(c, s):
    return mp.quorum_candidates(s["vmsgs1b"])


# -- log helpers -----------------------------------------------------------------

def last_bal(log: Tuple) -> int:
    return log[-1][0] if log else -1


def up_to_date(candidate_last_index: int, candidate_last_bal: int, log: Tuple) -> bool:
    """Figure 2a's vote restriction: the candidate's log must not be behind
    the voter's, comparing (last ballot, length)."""
    mine = (last_bal(log), len(log) - 1)
    theirs = (candidate_last_bal, candidate_last_index)
    return theirs >= mine


def merged_log(own: Tuple, snapshots: Iterable[Tuple]) -> Tuple:
    """BecomeLeader (Figure 2a lines 22-29): keep own entries; beyond them,
    adopt the highest-ballot entry per index among the quorum's extras."""
    length = max([len(own)] + [len(snap) for snap in snapshots])
    out = list(own)
    for index in range(len(own), length):
        best = None
        for snap in snapshots:
            if index < len(snap):
                if best is None or snap[index][0] > best[0]:
                    best = snap[index]
        if best is None:
            break  # hole: cannot extend further
        out.append(best)
    return tuple(out)


def _mk(name, kind, fn, var=None) -> Clause:
    return Clause(name=name, kind=kind, fn=fn, var=var)


# -- machine ------------------------------------------------------------------------

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
            _mk("merge-extra-entries", "update",
                lambda s, p: s["rlog"].set(p["a"], merged_log(
                    s["rlog"][p["a"]], [m[2] for m in p["S"]])),
                var="rlog"),
            _mk("become-leader", "update",
                lambda s, p: s["isleader"].set(p["a"], True), var="isleader"),
        ),
    )

    def propose_prefix(s, p) -> Tuple:
        """The (index, term, value) tuples a ProposeEntries adds: the whole
        log prefix re-stamped at the current term, plus the new value."""
        a, v = p["a"], p["v"]
        term = s["term"][a]
        log = s["rlog"][a]
        tuples = [(j, term, log[j][1]) for j in range(len(log))]
        tuples.append((len(log), term, v))
        return tuple(tuples)

    propose_entries = Action(
        name="ProposeEntries",
        params={"a": _acceptors, "v": _values},
        clauses=(
            _mk("is-leader", "guard", lambda s, p: s["isleader"][p["a"]]),
            _mk("log-has-room", "guard",
                lambda s, p: len(s["rlog"][p["a"]]) <= max_index),
            _mk("one-value-per-ballot", "guard",
                lambda s, p: all(
                    not any(t2[0] == t[0] and t2[1] == t[1] and t2[2] != t[2]
                            for t2 in s["proposed"])
                    for t in propose_prefix(s, p))),
            _mk("add-proposals", "update",
                lambda s, p: s["proposed"] | set(propose_prefix(s, p)),
                var="proposed"),
            _mk("send-append", "update",
                lambda s, p: s["pmsgs"] | {(
                    s["term"][p["a"]],
                    tuple((s["term"][p["a"]], t[2]) for t in propose_prefix(s, p)),
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
            _mk("no-erase", "guard",
                lambda s, p: len(p["pe"][1]) >= len(s["rlog"][p["a"]])),
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
                    (j, p["pe"][0], entry[1])
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
            "proposed": frozenset(),
            "vmsgs1a": frozenset(),
            "vmsgs1b": frozenset(),
            "pmsgs": frozenset(),
        })

    return SpecMachine(
        name="RaftStar",
        variables=("term", "isleader", "rlog", "votes", "proposed",
                   "vmsgs1a", "vmsgs1b", "pmsgs"),
        constants=constants,
        init=init,
        actions=[increase_term, request_vote, receive_vote, become_leader,
                 propose_entries, accept_entries],
    )


# -- the Figure 3 refinement mapping --------------------------------------------------

def log_as_instances(constants, log: Tuple) -> FMap:
    entries = {}
    for index in range(constants["max_index"] + 1):
        entries[index] = log[index] if index < len(log) else EMPTY_ENTRY
    return FMap(entries)


def figure3_state(constants, state: State, proposed: frozenset) -> State:
    """Figure 3 on states: currentTerm -> ballot, isLeader ->
    phase1Succeeded, entries -> instances, requestVote -> prepare,
    requestVoteOK -> prepareOK; append messages have no Paxos-state
    counterpart (they are implied accepts) and are dropped.  `proposed` is
    passed in because plain Raft (`specs.raft`) has no such variable."""
    return State({
        "ballot": state["term"],
        "leader": state["isleader"],
        "logs": FMap({
            a: log_as_instances(constants, state["rlog"][a])
            for a in constants["acceptors"]
        }),
        "votes": state["votes"],
        "proposed": proposed,
        "msgs1a": frozenset((m[0], m[1]) for m in state["vmsgs1a"]),
        "msgs1b": frozenset(
            (m[0], m[1], log_as_instances(constants, m[2]))
            for m in state["vmsgs1b"]
        ),
    })


def raftstar_to_multipaxos(constants) -> RefinementMapping:
    """The Figure 3 refinement mapping (function rows: `specs.mapping`)."""
    return RefinementMapping(
        name="figure-3",
        state_map=lambda state: figure3_state(constants, state, state["proposed"]),
        action_map=SPEC_CORRESPONDENCE,
    )


# -- invariants --------------------------------------------------------------------------

def election_safety(state: State, constants) -> bool:
    """At most one leader per term."""
    leaders: Dict[int, str] = {}
    for acceptor in constants["acceptors"]:
        if state["isleader"][acceptor]:
            term = state["term"][acceptor]
            if term in leaders and leaders[term] != acceptor:
                return False
            leaders[term] = acceptor
    return True


def agreement(state: State, constants) -> bool:
    """State-machine safety via the derived chosen set (same definition as
    MultiPaxos, over the mapped votes)."""
    return mp.agreement(state, constants)


INVARIANTS = {
    "agreement": agreement,
    "election-safety": election_safety,
}
