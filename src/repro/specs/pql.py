"""Paxos Quorum Lease, finite specification (Appendix B.3).

PQL as a *non-mutating optimization* of `specs.multipaxos`:

New variables
  timer       - the global lease timer (bounded; B.3 assumes a global timer)
  leases      - leases[p][q]: expiry of the lease p granted to q
  applyIndex  - applyIndex[a]: last instance a has applied
  localReads  - history of local reads (acceptor, applyIndex, prefix values)
                — observable for the linearizability invariant

Added subactions (B.3): `GrantLease`, `UpdateTimer`, `Apply`, `ReadAtLocal`.
Modified subactions: none in this formulation — B.3's lease checks live in
the *derived* `CanCommitAt`/`executable` notions, which read MultiPaxos'
`votes` without touching them, so the lease machinery is purely additive.

The key safety argument of §4.4/A.1 is checkable as `LEASE_INVARIANTS`:
every executable value is chosen AND known to every active lease holder
(quorum-intersection does the work), and everything a local read returns is
a chosen prefix.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Tuple

from repro.core.action import Action, Clause
from repro.core.machine import SpecMachine
from repro.core.state import State, fmap_const
from repro.specs import multipaxos as mp

NEW_VARIABLES = ("timer", "leases", "applyIndex", "localReads")


def default_config(n: int = 3, values: Tuple[str, ...] = ("a",),
                   max_ballot: int = 1, max_index: int = 0,
                   max_timer: int = 1, lease_duration: int = 1,
                   holders: Tuple[str, ...] = None) -> Dict[str, Any]:
    config = mp.default_config(n=n, values=values, max_ballot=max_ballot,
                               max_index=max_index)
    config["max_timer"] = max_timer
    config["lease_duration"] = lease_duration
    config["holders"] = holders if holders is not None else config["acceptors"]
    return config


# -- lease-derived notions (read-only over MultiPaxos state) --------------------

def _quorums(constants) -> Iterable[frozenset]:
    acceptors = constants["acceptors"]
    maj = mp.majority(constants)
    for combo in itertools.combinations(acceptors, maj):
        yield frozenset(combo)


def lease_is_active(state, constants, holder: str) -> bool:
    """LeaseIsActive(p): p holds unexpired leases from some quorum."""
    timer = state["timer"]
    return any(
        all(state["leases"][grantor][holder] >= timer for grantor in quorum)
        for quorum in _quorums(constants)
    )


def granted_holders(state, constants, quorum) -> frozenset:
    timer = state["timer"]
    return frozenset(
        holder for holder in constants["holders"]
        if any(state["leases"][grantor][holder] >= timer for grantor in quorum)
    )


def can_commit_at(state, constants, index: int, ballot: int, value) -> bool:
    """CanCommitAt: chosen by a quorum all of whose granted lease holders
    also voted (the write-waits-for-holders rule)."""
    vote = (index, ballot, value)
    for quorum in _quorums(constants):
        if not all(vote in state["votes"][acceptor] for acceptor in quorum):
            continue
        if all(vote in state["votes"][holder]
               for holder in granted_holders(state, constants, quorum)):
            return True
    return False


def executable_set(state, constants) -> frozenset:
    out = set()
    for acceptor in constants["acceptors"]:
        for vote in state["votes"][acceptor]:
            if can_commit_at(state, constants, *vote):
                out.add(vote)
    return frozenset(out)


# -- added subactions ------------------------------------------------------------

_acceptors = mp._acceptors


def _holders(c, s):
    return c["holders"]


def _mk(name, kind, fn, var=None) -> Clause:
    return Clause(name=name, kind=kind, fn=fn, var=var)


def added_actions(constants) -> list:
    grant_lease = Action(
        name="GrantLease",
        params={"p": _acceptors, "q": _holders},
        clauses=(
            _mk("grant-writes-lease", "update",
                lambda s, p: s["leases"].set(p["p"], s["leases"][p["p"]].set(
                    p["q"], s["timer"] + constants["lease_duration"])),
                var="leases"),
        ),
    )

    update_timer = Action(
        name="UpdateTimer",
        params={},
        clauses=(
            _mk("timer-bounded", "guard",
                lambda s, p: s["timer"] < constants["max_timer"]),
            _mk("tick", "update", lambda s, p: s["timer"] + 1, var="timer"),
        ),
    )

    def _next_apply(s, p):
        return s["applyIndex"][p["a"]] + 1

    apply_action = Action(
        name="Apply",
        params={"a": _acceptors},
        clauses=(
            _mk("next-instance-exists", "guard",
                lambda s, p: _next_apply(s, p) <= constants["max_index"]
                and s["logs"][p["a"]][_next_apply(s, p)] != mp.EMPTY_ENTRY),
            _mk("next-instance-committable", "guard",
                lambda s, p: can_commit_at(
                    s, constants, _next_apply(s, p),
                    s["logs"][p["a"]][_next_apply(s, p)][0],
                    s["logs"][p["a"]][_next_apply(s, p)][1])),
            _mk("advance-apply-index", "update",
                lambda s, p: s["applyIndex"].set(p["a"], _next_apply(s, p)),
                var="applyIndex"),
        ),
    )

    def _read_snapshot(s, p):
        a = p["a"]
        upto = s["applyIndex"][a]
        values = tuple(s["logs"][a][i][1] for i in range(upto + 1))
        return s["localReads"] | {(a, upto, values)}

    read_local = Action(
        name="ReadAtLocal",
        params={"a": _acceptors},
        clauses=(
            _mk("holds-quorum-lease", "guard",
                lambda s, p: lease_is_active(s, constants, p["a"])),
            _mk("applied-everything-accepted", "guard",
                lambda s, p: mp.log_tail(constants, s["logs"][p["a"]])
                == s["applyIndex"][p["a"]]),
            _mk("record-local-read", "update", _read_snapshot, var="localReads"),
        ),
    )

    return [grant_lease, update_timer, apply_action, read_local]


def build(constants: Dict[str, Any]) -> SpecMachine:
    """PQL = MultiPaxos + the added lease subactions (sharing the base
    machine's action objects, as an edited TLA+ spec shares its text)."""
    base = mp.build(constants)

    def init(c) -> Iterable[State]:
        for base_state in base.init(c):
            yield base_state.assign({
                "timer": 0,
                "leases": fmap_const(
                    c["acceptors"], fmap_const(c["holders"], -1)),
                "applyIndex": fmap_const(c["acceptors"], -1),
                "localReads": frozenset(),
            })

    return SpecMachine(
        name="PQL",
        variables=base.variables + NEW_VARIABLES,
        constants=constants,
        init=init,
        actions=list(base.actions) + added_actions(constants),
    )


# -- invariants (B.3's LeaseInv + read linearizability) --------------------------

def lease_safe(state: State, constants) -> bool:
    """LeaseInv: every executable value is chosen, and every *active* lease
    holder has voted for it (so its local reads cannot miss it)."""
    chosen = mp.chosen_values(state, constants)
    for index, ballot, value in executable_set(state, constants):
        if value not in chosen.get(index, set()):
            return False
        for holder in constants["holders"]:
            if lease_is_active(state, constants, holder):
                if (index, ballot, value) not in state["votes"][holder]:
                    return False
    return True


def reads_see_chosen_prefix(state: State, constants) -> bool:
    """Everything a local read returned was chosen at its instance."""
    chosen = mp.chosen_values(state, constants)
    for _acceptor, upto, values in state["localReads"]:
        for index in range(upto + 1):
            if values[index] not in chosen.get(index, set()):
                return False
    return True


def applied_prefix_committable(state: State, constants) -> bool:
    for acceptor in constants["acceptors"]:
        for index in range(state["applyIndex"][acceptor] + 1):
            ballot, value = state["logs"][acceptor][index]
            if value is None:
                return False
    return True


LEASE_INVARIANTS = {
    "lease-safe": lease_safe,
    "reads-see-chosen-prefix": reads_see_chosen_prefix,
    "applied-prefix-accepted": applied_prefix_committable,
}
