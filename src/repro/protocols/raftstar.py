"""Raft* (Figure 2 including the blue text).

Raft* differs from Raft in exactly the two ways §3 introduces so that a
refinement mapping to MultiPaxos exists:

1. **Vote replies carry extra entries.**  A voter includes every entry beyond
   the candidate's last index; the new leader merges the *safe* value per
   index (highest ballot) into its own log, stamping them with its current
   term — the MultiPaxos Phase1Succeed behaviour.  A follower whose log is
   longer than the leader's append range *rejects* instead of erasing.

2. **Per-entry ballots are rewritten on every append.**  Appending at term t
   sets the ballot of *all* covered entries to t (MultiPaxos proposers always
   overwrite the accepted ballot).  This removes the need for Raft's §5.4.2
   commit restriction: any majority-replicated index commits.

   The rewrite costs O(new entries), not O(log): a *ballot watermark*
   `(term, upto)` records that every `log[i]`, `i < upto`, already carries
   ballot `term`.  Under the Figure 3 mapping that pair is the MultiPaxos
   proposer's single ballot register — one value said once per log instead
   of once per entry (DESIGN.md §14, cost contracts).
"""

from __future__ import annotations

from typing import Dict

from repro.protocols.messages import AppendEntries, AppendEntriesReply, RequestVoteReply
from repro.protocols.raft import RaftReplica, Role
from repro.protocols.types import Command, Entry, OpType


class RaftStarReplica(RaftReplica):
    """A Raft* replica."""

    def __init__(self, name, sim, network, config) -> None:
        self._pending_extras: Dict[int, Entry] = {}
        # Ballot watermark: every log[i], i < _ballot_upto, has ballot
        # _ballot_term.  Always <= len(log); appends past it need no
        # bookkeeping, an overwrite below it lowers it (`_try_append`).
        self._ballot_term = -1
        self._ballot_upto = 0
        super().__init__(name, sim, network, config)

    # -- difference 1: vote-reply extras and leader-side merge ------------------

    def _vote_extras(self, candidate_last_index: int) -> Dict[int, Entry]:
        return {
            index: self.log[index].copy()
            for index in range(candidate_last_index + 1, self.last_index + 1)
        }

    def _on_vote_reply(self, src: str, msg: RequestVoteReply) -> None:
        # Stash extras before the base class counts the vote, because reaching
        # a majority triggers _assume_leadership immediately.
        if (
            self.role is Role.CANDIDATE
            and msg.term == self.current_term
            and msg.granted
        ):
            for index, entry in msg.extra_entries.items():
                best = self._pending_extras.get(index)
                if best is None or entry.ballot > best.ballot:
                    self._pending_extras[index] = entry
        super()._on_vote_reply(src, msg)

    def _on_leader_timeout(self) -> None:
        self._pending_extras = {}
        super()._on_leader_timeout()

    def _assume_leadership(self, initial: bool = False) -> None:
        if not initial:
            self._merge_safe_entries()
        super()._assume_leadership(initial=initial)

    def _merge_safe_entries(self) -> None:
        """Figure 2a lines 22-29: adopt the highest-ballot value per index
        beyond our own log, restamped with the current term."""
        extras = self._pending_extras
        for index in sorted(extras):
            if index <= self.last_index:
                continue  # our own entries are already the safe ones
            while self.last_index < index - 1:
                # Hole between our log and a reported extra: fill with no-op
                # (a proposer choosing its own value for an unconstrained
                # instance).
                self._append_to_log(self._padding_nop())
            entry = extras[index]
            self.log.append(Entry(
                term=self.current_term, command=entry.command, ballot=self.current_term,
            ))
            self._entry_entered(index, entry.command)
        self._pending_extras = {}

    def _padding_nop(self) -> Command:
        return Command(
            op=OpType.NOP,
            client_id=f"__pad__{self.name}",
            seq=self.current_term * 1_000_000 + self.last_index + 1,
            value_size=0,
        )

    # -- difference 1 (follower side): never erase, reject longer logs ---------

    def _try_append(self, msg: AppendEntries) -> tuple:
        if msg.prev_index >= 0 and self.term_at(msg.prev_index) != msg.prev_term:
            return False, min(self.last_index, msg.prev_index - 1)
        if not msg.entries:
            # Pure heartbeat / commit-index update: nothing could be erased,
            # so the no-erase rule does not apply.
            return True, msg.prev_index
        if self.last_index > msg.last_index:
            # Figure 2b line 16: an acceptor rejects the leader's append if
            # its log is longer — erasing has no Paxos counterpart.
            return False, self.last_index
        insert = msg.prev_index + 1
        if insert < self._ballot_upto:
            self._ballot_upto = insert  # overwriting below the watermark
        entered = self._entry_entered
        for offset, entry in enumerate(msg.entries):
            index = insert + offset
            if index <= self.last_index:
                self.log[index] = entry  # overwrite, never truncate
            else:
                self.log.append(entry)
            entered(index, entry.command)
        self._rewrite_ballots(msg.term)
        return True, msg.last_index

    def _rewrite_ballots(self, term: int) -> None:
        """Difference 2: all entries' ballots become the appending term
        (Figure 2b lines 6-7).  Entries are *replaced*, never mutated in
        place — log entries are shared with in-flight messages and peer
        logs (the transport ships references, not copies), so an in-place
        write here would rewrite another replica's state.

        Only entries above the watermark are visited while the term is
        unchanged; a term change walks the whole log once."""
        log = self.log
        start = self._ballot_upto if term == self._ballot_term else 0
        for index in range(start, len(log)):
            entry = log[index]
            if entry.ballot != term:
                log[index] = Entry(term=entry.term, command=entry.command,
                                   ballot=term)
        self._ballot_term = term
        self._ballot_upto = len(log)

    def _append_to_log(self, command: Command) -> None:
        super()._append_to_log(command)
        self._rewrite_ballots(self.current_term)

    def _handle_append_reject(self, peer: str, msg: AppendEntriesReply) -> None:
        # A follower with a longer log rejected us.  Our merged log already
        # holds every potentially-committed value (phase-1 quorum coverage),
        # so the follower's surplus is unchosen: pad with no-ops so our next
        # append covers (and overwrites) its entire log.
        if msg.match_index > self.last_index and self.role is Role.LEADER:
            while self.last_index < msg.match_index:
                self._append_to_log(self._padding_nop())
            self._schedule_flush()

    # -- difference 2 consequence: no current-term commit restriction ------------

    def _commit_gate(self, candidate: int) -> int:
        return candidate

    # -- lifecycle ------------------------------------------------------------------

    def on_recover(self) -> None:
        # The watermark is volatile and describes the log object lost in
        # the crash, not whatever stable storage hands back.  (A catch-up
        # install needs no reset: it only ever replaces an empty log,
        # whose watermark is already 0.)
        self._ballot_upto = 0
        super().on_recover()
