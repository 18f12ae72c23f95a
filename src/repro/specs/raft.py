"""Plain Raft, finite specification — the §3 negative result.

Figure 2 prints Raft in black and what Raft* adds in blue.  This module says
exactly that: Raft is `specs.raftstar` with the blue text taken out.  `BLUE`
names every blue clause; four are deleted outright, and the two the ballot
rewrite changed go back to their black-text form under names of their own
(clauses are compared by name, so `diff_optimization(raft, raftstar)` reads
off Figure 2's colouring).  The differences are the two §3 identifies, and
each one breaks the direct refinement to MultiPaxos:

1. **Erasing.**  Without `no-erase`, a follower whose log is longer than the
   leader's append erases the extra entries.  Mapped to MultiPaxos, an
   acceptor would be deleting a previously accepted value — no Paxos action
   does that.
2. **Immutable terms.**  A new leader replicates old entries with their
   original terms (no ballot rewriting, nothing merged from vote replies);
   the mapped step writes an instance at a ballot *below* the acceptor's
   current ballot, which Paxos' `Accept` guard forbids.

`tests/specs/test_raft_negative.py` runs `check_refinement` on this machine
and asserts that it FAILS, with a counterexample exercising the erasing
step — the mechanical version of the paper's argument for why Raft* is
needed.  (The vote reply still records the voter's log: as a *history*
component, not transmitted and — with `merge-extra-entries` gone — never
read, purely so the mapped Paxos prepareOK message is well-formed.)
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.action import Clause
from repro.core.machine import SpecMachine
from repro.core.refinement import RefinementMapping
from repro.core.state import State
from repro.specs import raftstar as rs

#: Figure 2's blue text: Raft* clause name -> what plain Raft has in its
#: place (None: nothing).
BLUE: Dict[str, Optional[Clause]] = {
    # BecomeLeader merges nothing: the candidate's log stands.
    "merge-extra-entries": None,
    "one-value-per-ballot": None,
    "add-proposals": None,
    # The follower matches the leader's log even when its own is longer.
    "no-erase": None,
    # The append replicates the leader's log verbatim and the follower votes
    # for what it received: old entries keep their original terms.
    "send-append": Clause(
        "send-append-verbatim", "update",
        lambda s, p: s["pmsgs"] | {(
            s["term"][p["a"]],
            s["rlog"][p["a"]] + ((s["term"][p["a"]], p["v"]),),
        )},
        var="pmsgs"),
    "record-votes": Clause(
        "record-votes-at-entry-terms", "update",
        lambda s, p: s["votes"].set(p["a"], s["votes"][p["a"]] | {
            (j, entry[0], entry[1]) for j, entry in enumerate(p["pe"][1])
        }),
        var="votes"),
}
BLUE_VARIABLES = ("proposed",)


def build(constants: Dict[str, Any]) -> SpecMachine:
    return rs.build(constants).derive("Raft", BLUE, BLUE_VARIABLES)


def raft_to_multipaxos(constants) -> RefinementMapping:
    """The Figure 3 mapping attempted on plain Raft.  Plain Raft has no
    `proposed` variable; the mapped `proposed` is reconstructed as every
    (index, term, value) occurring in any append message — the most generous
    reading.  The refinement still fails (that is the point)."""

    def state_map(state: State) -> State:
        return rs.figure3_state(constants, state, frozenset(
            (index, entry[0], entry[1])
            for _term, entries in state["pmsgs"]
            for index, entry in enumerate(entries)
        ))

    return RefinementMapping(name="figure-3-on-plain-raft", state_map=state_map)
