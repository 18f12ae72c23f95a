"""Dynamic membership: the config algebra shared by both reconfiguration
styles the paper's parallel contrasts (Howard & Mortier, PAPERS.md).

The protocol family splits along the same seam as everything else in this
repo:

* **Joint consensus** (Raft side — Raft, Raft*, the PQL variants): a
  change from ``Cold`` to ``Cnew`` first commits a *joint* config; while
  joint, every election and every commit needs a majority of ``Cold``
  **and** a majority of ``Cnew``, so any two quorums across the
  transition intersect and no two leaders can be elected on disjoint
  voter views.  A second log entry (the *final* config) retires ``Cold``.

* **α-bounded reconfiguration** (Paxos side — MultiPaxos, PaxosPQL): the
  classic single-decree scheme from Lamport's "Paxos Made Simple" §on
  reconfiguration — a config chosen at slot ``s`` governs slots
  ``>= s + α``.  Proposers may keep at most ``α`` slots in flight past
  the commit frontier, so by the time a slot's voters could have changed
  the deciding config is already chosen and applied.  One log entry, no
  joint phase; the cost is the pipeline bound.

This module is the **pure** part: voter sets, quorum predicates, and the
slot-indexed config log, with no simulator or protocol imports — exactly
the surface the hypothesis property tests in `tests/membership/` drive.
The wire/command encoding lives in `repro.protocols.messages`
(`ConfigChange`); the live-replacement orchestration in
`repro.membership.driver` and `repro.shard.cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (AbstractSet, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

#: Default α for the Paxos-side window: generous enough that steady-state
#: pipelining never feels it (the repo's proposers keep far fewer slots in
#: flight), small enough that a reconfiguration becomes effective within
#: one burst of traffic.
DEFAULT_ALPHA = 256


def majority_of(voters: AbstractSet[str]) -> int:
    """Smallest quorum size over `voters` (strict majority)."""
    return len(voters) // 2 + 1


def is_quorum(voters: AbstractSet[str], acks: AbstractSet[str]) -> bool:
    """Whether `acks` contains a majority of `voters`.  Names outside the
    voter set never count — a retired replica's ack is inert."""
    return len(acks & voters) >= majority_of(voters)


def joint_quorum(old: AbstractSet[str], new: AbstractSet[str],
                 acks: AbstractSet[str]) -> bool:
    """The joint-consensus quorum rule: a majority of Cold AND of Cnew.

    Any two ack sets passing this predicate intersect (both contain a
    majority of `old`), which is the whole safety argument for changing
    membership without a stop-the-world barrier."""
    return is_quorum(old, acks) and is_quorum(new, acks)


@dataclass(frozen=True)
class VoterView:
    """A replica's current notion of who votes.

    `groups` is a tuple of voter sets that must EACH be satisfied: one
    entry when stable, two (Cold, Cnew) while a joint config is active.
    `epoch` rises by one per completed change; `phase` is ``"stable"`` or
    ``"joint"``."""

    groups: Tuple[FrozenSet[str], ...]
    epoch: int = 0
    phase: str = "stable"

    @staticmethod
    def stable(voters: Iterable[str], epoch: int = 0) -> "VoterView":
        return VoterView(groups=(frozenset(voters),), epoch=epoch)

    @staticmethod
    def joint(old: Iterable[str], new: Iterable[str],
              epoch: int) -> "VoterView":
        return VoterView(groups=(frozenset(old), frozenset(new)),
                         epoch=epoch, phase="joint")

    @property
    def voters(self) -> FrozenSet[str]:
        """Everyone with a vote in any active group (the peer set)."""
        out: FrozenSet[str] = frozenset()
        for group in self.groups:
            out = out | group
        return out

    @property
    def newest(self) -> FrozenSet[str]:
        """The target voter set (Cnew while joint, the only set when
        stable) — who survives once the change completes."""
        return self.groups[-1]

    def quorum(self, acks: AbstractSet[str]) -> bool:
        """Whether `acks` satisfies every active voter group."""
        return all(is_quorum(group, acks) for group in self.groups)

    def commit_index(self, match_of) -> int:
        """The highest index replicated on a quorum of every active
        group.  `match_of(name)` returns a voter's known match index
        (the caller supplies its own `last_index` for itself)."""
        candidate: Optional[int] = None
        for group in self.groups:
            matches = sorted(match_of(name) for name in group)
            need = majority_of(group)
            group_candidate = matches[len(matches) - need]
            if candidate is None or group_candidate < candidate:
                candidate = group_candidate
        return candidate if candidate is not None else 0


@dataclass
class ConfigLog:
    """The α-bounded config history: which voter set governs which slot.

    A config *decided* (chosen and applied) at slot ``d`` becomes
    *effective* at ``d + α``; slots below the first entry's effective
    slot are governed by the construction-time voter set.  Entries are
    appended in decision order with strictly rising epochs, so replay
    after a crash rebuilds the identical history."""

    initial: FrozenSet[str]
    alpha: int = DEFAULT_ALPHA
    # (effective_slot, voters, epoch), effective slots non-decreasing.
    entries: List[Tuple[int, FrozenSet[str], int]] = field(
        default_factory=list)

    def __copy__(self) -> "ConfigLog":
        # `decide` appends in place, so a copy keeps its own history.
        return replace(self, entries=list(self.entries))

    def decide(self, slot: int, voters: Iterable[str], epoch: int) -> int:
        """Record a config decided at `slot`; returns its effective slot.
        Idempotent under replay (a re-decided epoch is ignored)."""
        if self.entries and epoch <= self.entries[-1][2]:
            return next(eff for eff, _v, e in self.entries if e >= epoch)
        effective = slot + self.alpha
        if self.entries and effective < self.entries[-1][0]:
            effective = self.entries[-1][0]
        self.entries.append((effective, frozenset(voters), epoch))
        return effective

    def voters_at(self, slot: int) -> FrozenSet[str]:
        """The voter set governing `slot`: the newest entry whose
        effective slot is <= `slot`, else the initial set.  Because a
        config decided at ``d`` only governs slots ``>= d + α``, no slot
        is ever judged by a config decided after ``slot - α``."""
        governing = self.initial
        for effective, voters, _epoch in self.entries:
            if effective <= slot:
                governing = voters
            else:
                break
        return governing

    def epoch_at(self, slot: int) -> int:
        governing = 0
        for effective, _voters, epoch in self.entries:
            if effective <= slot:
                governing = epoch
            else:
                break
        return governing

    @property
    def epoch(self) -> int:
        """Newest decided epoch (effective or not)."""
        return self.entries[-1][2] if self.entries else 0

    @property
    def current(self) -> FrozenSet[str]:
        """Newest decided voter set (the target of in-flight changes)."""
        return self.entries[-1][1] if self.entries else self.initial

    def window_open(self, next_slot: int, frontier: int) -> bool:
        """The proposer-side α gate: slot `next_slot` may be proposed
        only while it stays within α of the commit `frontier` — the
        invariant that makes `voters_at` sound."""
        return next_slot <= frontier + self.alpha
