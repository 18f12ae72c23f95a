"""Raft*-Mencius (Coordinated Raft*, Appendix A.4/B.6) and Coordinated Paxos
(Appendix A.3/B.5).

Mencius partitions the global log round-robin: with replicas r0..r4, r0 owns
indexes 0,5,10,…, r1 owns 1,6,11,…  Each replica is the *default leader*
(ballot 0) of its owned indexes: it proposes client commands there and they
commit after f acceptances (plus its own).

Skips keep the log moving: whenever a replica observes a higher index in use,
it advances its own next owned index, and per coordinated Paxos everyone may
treat a default leader's unused indexes below its advertised frontier as
chosen no-ops without any phase-2 wait.

One rule resolves a slot, whatever the links lose:
* every message carries the sender's frontier (`next_own`) and `since`, the
  frontier it last broadcast.  A receiver infers skips below the frontier
  only if it has recorded `since` — else a broadcast was lost and those
  slots wait for catch-up — and never for a slot under a recovery promise;
* commit news is (index, ballot) pairs: a receiver commits only the entry
  it holds at that ballot, so a value a recovery replaced is never run;
* one stall clock: the lowest unresolved slot, stuck for `REVOKE_TIMEOUT`,
  is pulled from the most advanced peer, and from every peer if it stays
  stuck a tick longer; stuck for twice that, or owned by a replica silent
  that long, it is revoked.
On FIFO links that lose nothing this is the plain Mencius path.

Execution:
* **ordered mode** (contended workloads) — a command answers once every
  index up to its own is committed or skipped, which requires learning other
  owners' commit decisions (piggybacked `committed` lists);
* **commutative mode** (conflict-free workloads, the paper's "Raft*-M-0%")
  — a write answers as soon as it commits and all earlier indexes are
  *known* (proposal or skip seen), the optimization §5.2 measures.

Revocation: the lowest-ranked replica other than the slot's owner runs
coordinated-Paxos phase 1 over the stalled range with a higher ballot (a
fresh one if a quorum is not gathered in time) and proposes no-ops (or any
accepted value it finds).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.protocols.base import ReplicaBase
from repro.protocols.config import (APPEND_FLUSH_INTERVAL, REVOKE_TIMEOUT,
                                    ClusterConfig)
from repro.protocols.messages import (
    MenciusAck,
    MenciusAppend,
    MenciusCatchup,
    MenciusPrepare,
    MenciusPromise,
    MenciusState,
    SkipNotice,
)
from repro.protocols.types import Command, Entry, OpType

# Per-slot status.  Only ever these three module objects — statuses move
# between replicas in-process (`MenciusState`), never through a
# serializer — so the per-message paths compare them by identity.
STATUS_ACCEPTED = "accepted"
STATUS_COMMITTED = "committed"
STATUS_SKIPPED = "skipped"

_PUT = OpType.PUT
_NOP = OpType.NOP

#: Most slots one catch-up answer carries; the asker pulls the next run.
CATCHUP_BATCH = 512

#: The one no-op a slot resolves to, skipped by its owner or filled by a
#: revocation alike: ``noop_command(seq=index)``.  Two replicas that
#: reached the same no-op by different routes hold equal commands.
noop_command = partial(Command, op=_NOP, client_id="__skip__", value_size=0)


class MenciusReplica(ReplicaBase):
    """A Mencius replica (default-leader + acceptor + learner in one)."""

    # Leaderless: there is no leader keepalive to merge into a host
    # beacon.  Skip/commit announcements already piggyback on the
    # protocol's own messages, which the host mux coalesces like any other
    # traffic — so Mencius groups are explicitly EXEMPT from beacon
    # merging (pinned by tests/protocols/test_mux.py).
    beacon_mergeable = False

    #: execution mode: "ordered" or "commutative"
    execution_mode = "ordered"

    _durable = ("entries", "status", "next_own", "promised")

    def __init__(self, name, sim, network, config: ClusterConfig,
                 execution_mode: Optional[str] = None) -> None:
        super().__init__(name, sim, network, config)
        if execution_mode is not None:
            self.execution_mode = execution_mode
        self.rank = config.ranks[name]
        self.entries: Dict[int, Entry] = {}
        self.status: Dict[int, str] = {}
        self.next_own = self.rank              # my next unused owned index
        self._last_broadcast = self.rank       # the frontier I last broadcast
        self.frontier: Dict[str, int] = dict(config.ranks)
        # Per-index promised ballot, kept after the slot resolves: it is
        # what stops a resolved slot from acking a lower-ballot append that
        # a recovered owner could count into a commit.
        self.promised: Dict[int, int] = {}
        # Ack sets of slots this replica proposed and still counts: dropped
        # once the slot commits or is skipped, by whatever route.
        self._acks: Dict[int, Set[str]] = {}
        self._batch: Dict[int, Entry] = {}
        self._fresh_commits: List[Tuple[int, int]] = []   # (index, ballot)
        self._reply_frontier = -1              # commutative-mode bookkeeping
        self._last_heard: Dict[str, int] = {n: 0 for n in config.names}
        self._recovering: Dict[str, dict] = {}
        # (lowest unresolved, since when, whether a catch-up was asked)
        self._stall = (-1, 0, False)

        self._flush_timer = self.timer("mencius-flush")
        self._skip_timer = self.timer("skip")
        self._suspect_timer = self.timer("suspect")
        self._skip_timer.arm(config.skip_interval, self._on_skip_tick)
        self._suspect_timer.arm(REVOKE_TIMEOUT, self._on_suspect_tick)

        self.register_handler(MenciusAppend, self._on_append)
        self.register_handler(MenciusAck, self._on_ack)
        self.register_handler(SkipNotice, self._on_skip_notice)
        self.register_handler(MenciusPrepare, self._on_prepare)
        self.register_handler(MenciusPromise, self._on_promise)
        self.register_handler(MenciusCatchup, self._on_catchup)
        self.register_handler(MenciusState, self._on_state)

    # -- ownership helpers ----------------------------------------------------

    def _my_next_owned_at_or_above(self, index: int) -> int:
        return index + (self.rank - index) % self.config.n

    def leader_hint(self) -> Optional[str]:
        return self.name  # every replica serves its own clients

    def _advertised_frontier(self) -> int:
        """The frontier safe to advertise: everything below it has been
        *sent* (or skipped).  Batched-but-unflushed proposals must not be
        covered, or receivers would misread them as skips."""
        if self._batch:
            return min(self._batch)
        return self.next_own

    # -- client path ---------------------------------------------------------------

    def submit_command(self, command: Command) -> None:
        if self.obs is not None:
            self.obs_phase(command.trace_id, "append")
        index = self.next_own
        self.next_own += self.config.n
        entry = Entry(term=0, command=command, ballot=0)
        self.entries[index] = entry
        self.status[index] = STATUS_ACCEPTED
        self._acks.setdefault(index, set()).add(self.name)
        self._batch[index] = entry
        if not self._flush_timer.armed:
            self._flush_timer.arm(APPEND_FLUSH_INTERVAL, self._flush)

    def _flush(self) -> None:
        self._flush_timer.cancel()
        if not self._batch and not self._fresh_commits:
            return
        batch, self._batch = self._batch, {}
        commits, self._fresh_commits = self._fresh_commits, []
        self._broadcast(self.next_own, MenciusAppend(
            sender=self.name, owner=self.name, ballot=0, items=batch,
            next_own=self.next_own, since=self._last_broadcast,
            committed=commits,
        ))

    def _broadcast(self, frontier: int, message) -> None:
        """Send a message carrying `frontier` to every peer; the next
        broadcast names it as its `since`."""
        self._last_broadcast = frontier
        for peer in self.peers:
            self.send(peer, message)

    # -- accepting appends ----------------------------------------------------------------

    def _on_append(self, src: str, msg: MenciusAppend) -> None:
        sender = msg.sender
        self._last_heard[sender] = self.sim.now
        items = msg.items
        ballot = msg.ballot
        promised = self.promised
        status = self.status
        entries = self.entries
        accepted_ids: List[int] = []
        for index, entry in items.items():
            held = promised.get(index, 0)
            if ballot < held:
                continue
            state = status.get(index)
            if state is STATUS_COMMITTED or state is STATUS_SKIPPED:
                accepted_ids.append(index)  # idempotent re-accept
                continue
            if ballot > held:
                # (A ballot-0 promise over an absent entry reads the same
                # through `.get(index, 0)` and is not stored.)
                promised[index] = ballot
            ousted = entries.get(index)
            # Entries are never mutated in place (recovery restamps by
            # building new ones), so the sender's object is adopted as is.
            entries[index] = entry
            status[index] = STATUS_ACCEPTED
            accepted_ids.append(index)
            if ousted is not None:
                self._repropose_ousted(ousted, entry)
        # A recovery append's frontier is its sender's, not the revoked
        # owner's.
        self._note_frontier(sender, msg.next_own, msg.since)
        self._note_commits(msg.committed)
        if not items:
            # A commit-only broadcast (`_flush` with an empty batch):
            # nothing accepted, nothing to ack.
            self._maybe_skip_past(msg.next_own - 1)
        else:
            self._maybe_skip_past(max(items))
            # Commit news is never piggybacked here: it must reach every
            # replica, so it only travels on the broadcast path (_flush).
            self.send(src, MenciusAck(
                acker=self.name, ballot=ballot, indexes=accepted_ids,
                next_own=self._advertised_frontier(),
                since=self._last_broadcast,
            ))
        self._advance()

    def _repropose_ousted(self, ousted: Entry, entry: Entry) -> None:
        """`entry` replaced `ousted` at its index.  If a recovery thereby
        overwrote a command we still owe an answer for, re-propose it at a
        fresh owned index."""
        command = ousted.command
        if (
            not command.is_nop
            and command.request_id != entry.command.request_id
            and (command.request_id in self._clients
                 or command.request_id in self._relays)
        ):
            self.submit_command(command)

    def _maybe_skip_past(self, seen_index: int) -> None:
        """On observing `seen_index` in use, skip our unused owned indexes
        below it (Mencius rule: never let our turn stall the log)."""
        if seen_index < self.next_own:
            return
        new_next = self._my_next_owned_at_or_above(seen_index + 1)
        entries = self.entries
        for index in self.config.slots_of(self.name, self.next_own, new_next):
            if index not in entries:
                self._mark_skipped(index)
        self.next_own = new_next

    def _mark_skipped(self, index: int) -> None:
        # Only ever for a slot with no entry, so no ack set to drop.
        self.entries[index] = Entry(0, noop_command(seq=index), 0)
        self.status[index] = STATUS_SKIPPED

    def _on_ack(self, src: str, msg: MenciusAck) -> None:
        acker = msg.acker
        self._last_heard[acker] = self.sim.now
        self._note_frontier(acker, msg.next_own, msg.since)
        if msg.indexes:
            status = self.status
            pending = self._acks
            majority = self.config.majority
            ballot = msg.ballot
            for index in msg.indexes:
                state = status.get(index)
                if state is STATUS_COMMITTED or state is STATUS_SKIPPED:
                    continue
                acks = pending.get(index)
                if acks is None:
                    acks = pending[index] = set()
                acks.add(acker)
                if len(acks) >= majority:
                    # Committed: the ack set has done its job (later acks
                    # for the index stop at the status test above).
                    status[index] = STATUS_COMMITTED
                    del pending[index]
                    self._fresh_commits.append((index, ballot))
                    if not self._flush_timer.armed:
                        self._flush_timer.arm(
                            APPEND_FLUSH_INTERVAL, self._flush)
        self._advance()

    # -- skip / commit dissemination ----------------------------------------------------

    def _note_frontier(self, sender: str, next_own: int, since: int) -> None:
        """Learn `sender`'s skip frontier.  Unless a broadcast was lost
        (`since` is not the frontier we hold), its owned slots below it with
        no entry and no recovery promise were never proposed: no-ops."""
        old = self.frontier.get(sender, 0)
        if next_own <= old:
            return
        self.frontier[sender] = next_own
        if since > old:
            return
        entries = self.entries
        promised = self.promised
        for index in self.config.slots_of(sender, old, next_own):
            if index not in entries and index not in promised:
                self._mark_skipped(index)

    def _note_commits(self, committed: List[Tuple[int, int]]) -> None:
        status = self.status
        entries = self.entries
        for index, ballot in committed:
            entry = entries.get(index)
            if (entry is not None and entry.ballot == ballot
                    and status[index] is not STATUS_SKIPPED):
                status[index] = STATUS_COMMITTED
                self._acks.pop(index, None)

    def _on_skip_notice(self, src: str, msg: SkipNotice) -> None:
        self._last_heard[msg.owner] = self.sim.now
        self._note_frontier(msg.owner, msg.below, msg.since)
        self._advance()

    def _on_skip_tick(self) -> None:
        """Periodic frontier broadcast: keeps idle replicas from stalling
        everyone else's execution."""
        max_seen = max([self.next_own - 1] + [f - 1 for f in self.frontier.values()])
        self._maybe_skip_past(max_seen)
        below = self._advertised_frontier()
        self._broadcast(below, SkipNotice(owner=self.name, below=below,
                                          since=self._last_broadcast))
        if self._fresh_commits and not self._flush_timer.armed:
            self._flush_timer.arm(APPEND_FLUSH_INTERVAL, self._flush)
        self._skip_timer.arm(self.config.skip_interval, self._on_skip_tick)

    # -- execution -----------------------------------------------------------------------

    def _advance(self) -> None:
        # Ordered execution: apply the longest resolved prefix.  Commands
        # answered early in commutative mode have already been popped from
        # the pending tables, so applying them only updates the store.
        index = self.last_applied + 1
        while self.status.get(index) in (STATUS_COMMITTED, STATUS_SKIPPED):
            index += 1
        self._apply_to(index - 1, self.entries)
        if self.execution_mode == "commutative":
            self._advance_commutative()

    def _advance_commutative(self) -> None:
        """Commutative mode (Raft*-M-0%): answer a committed write as soon as
        every earlier index is *known* (proposal or skip seen) — conflict-free
        writes need not wait for earlier commits to execute."""
        entries = self.entries
        index = self._reply_frontier + 1
        entry = entries.get(index)
        if entry is None:
            return  # the common case: the next index is not known yet
        status = self.status
        n = self.config.n
        rank = self.rank
        applied = self.last_applied
        while entry is not None:
            state = status.get(index)
            if state is STATUS_ACCEPTED and index % n == rank:
                break  # our own entry must commit before we answer it
            if index > applied and (state is STATUS_COMMITTED
                                          or state is STATUS_SKIPPED):
                command = entry.command
                if command.op is _PUT:
                    rid = command.request_id
                    if rid in self._clients or rid in self._relays:
                        self.complete(command, ok=True, value=None)
            index += 1
            entry = entries.get(index)
        self._reply_frontier = index - 1

    # -- stalls: catch up, then revoke ------------------------------------------

    def _behind(self) -> bool:
        """Whether something is waiting on the lowest unresolved slot."""
        return (self.last_applied + 1 < max(self.frontier.values())
                or bool(self._batch))

    def _on_suspect_tick(self) -> None:
        """The one stall clock (module docstring).  Only the lowest-ranked
        replica other than a slot's owner revokes it: no duelling."""
        stalled = self.last_applied + 1
        now = self.sim.now
        if self._stall[0] != stalled:
            self._stall = (stalled, now, False)
        if self._behind():
            _, since, asked = self._stall
            stuck_for = now - since
            if stuck_for >= REVOKE_TIMEOUT and self.peers:
                # Every peer answers the same window, so the first pull
                # asks one, the most advanced.  If that left the slot
                # stuck (silent, or as far behind), the next asks all.
                peers = self.peers
                if not asked:
                    frontier = self.frontier
                    peers = [max(peers, key=lambda peer: frontier.get(peer, 0))]
                    self._stall = (stalled, since, True)
                request = MenciusCatchup(start=stalled)
                for peer in peers:
                    self.send(peer, request)
            owner = self.config.owner_of(stalled)
            names = self.config.names
            revoker = names[1] if owner == names[0] else names[0]
            if revoker == self.name and (
                    stuck_for >= 2 * REVOKE_TIMEOUT
                    or now - self._last_heard[owner] >= REVOKE_TIMEOUT):
                self._start_recovery(owner, stalled,
                                     max(self.frontier.values()))
        self._suspect_timer.arm(REVOKE_TIMEOUT, self._on_suspect_tick)

    def _on_catchup(self, src: str, msg: MenciusCatchup) -> None:
        """Answer with the slots resolved here among the `CATCHUP_BATCH`
        from `start`, unless `start` is not: that would not unstick it."""
        status = self.status
        start = msg.start
        if status.get(start, STATUS_ACCEPTED) is STATUS_ACCEPTED:
            return
        entries = self.entries
        items = {}
        for index in range(start, start + CATCHUP_BATCH):
            state = status.get(index)
            if state is STATUS_COMMITTED or state is STATUS_SKIPPED:
                items[index] = (entries[index], state)
        self.send(src, MenciusState(items=items))

    def _on_state(self, src: str, msg: MenciusState) -> None:
        status = self.status
        entries = self.entries
        before = self.last_applied
        for index, (entry, state) in msg.items.items():
            if status.get(index, STATUS_ACCEPTED) is not STATUS_ACCEPTED:
                continue
            ousted = entries.get(index)
            entries[index] = entry
            status[index] = state
            self._acks.pop(index, None)
            if ousted is not None:
                self._repropose_ousted(ousted, entry)
        self._advance()
        if self.last_applied > before and self._behind():
            self.send(src, MenciusCatchup(start=self.last_applied + 1))

    def _start_recovery(self, owner: str, start: int, horizon: int) -> None:
        now = self.sim.now
        attempt = self._recovering.get(owner)
        if attempt is not None and now - attempt["at"] < REVOKE_TIMEOUT:
            return  # give a lost prepare or promise time before re-preparing
        end = max(horizon, start + self.config.n)
        ballot = now // 1000 + self.rank + 1  # unique, increasing
        self._recovering[owner] = {
            "ballot": ballot, "start": start, "end": end, "at": now,
            "promises": {self.name: self._make_promise(ballot, owner, start, end)},
        }
        message = MenciusPrepare(ballot=ballot, owner=owner, start=start, end=end)
        for peer in self.peers:
            self.send(peer, message)

    def _make_promise(self, ballot: int, owner: str, start: int, end: int) -> MenciusPromise:
        accepted = {}
        for index in self.config.slots_of(owner, start, end):
            self.promised[index] = max(self.promised.get(index, 0), ballot)
            if index in self.entries and self.status[index] is not STATUS_SKIPPED:
                accepted[index] = self.entries[index]
        return MenciusPromise(ballot=ballot, acceptor=self.name, owner=owner,
                              accepted=accepted)

    def _on_prepare(self, src: str, msg: MenciusPrepare) -> None:
        for index in self.config.slots_of(msg.owner, msg.start, msg.end):
            if msg.ballot < self.promised.get(index, 0):
                return  # already promised higher; ignore
        self.send(src, self._make_promise(msg.ballot, msg.owner, msg.start, msg.end))

    def _on_promise(self, src: str, msg: MenciusPromise) -> None:
        state = self._recovering.get(msg.owner)
        if state is None or msg.ballot != state["ballot"]:
            return
        state["promises"][msg.acceptor] = msg
        if len(state["promises"]) < self.config.majority:
            return
        # Phase 2: propose the safest value per index (accepted value if any
        # promise reports one, else no-op).
        items: Dict[int, Entry] = {}
        for index in self.config.slots_of(msg.owner, state["start"], state["end"]):
            if self.status.get(index) in (STATUS_COMMITTED, STATUS_SKIPPED):
                continue
            best: Optional[Entry] = None
            for promise in state["promises"].values():
                entry = promise.accepted.get(index)
                if entry is not None and (best is None or entry.ballot > best.ballot):
                    best = entry
            command = (best.command if best is not None
                       else noop_command(seq=index))
            entry = Entry(term=state["ballot"], command=command, ballot=state["ballot"])
            items[index] = entry
            self.entries[index] = entry
            self.status[index] = STATUS_ACCEPTED
            self.promised[index] = state["ballot"]
            self._acks[index] = {self.name}
        del self._recovering[msg.owner]
        if items:
            frontier = self._advertised_frontier()
            self._broadcast(frontier, MenciusAppend(
                sender=self.name, owner=msg.owner, ballot=state["ballot"],
                items=items, next_own=frontier, since=self._last_broadcast,
            ))
        self._advance()

    # -- lifecycle -------------------------------------------------------------------------

    def _restart(self) -> None:
        # Acceptance is durable, commit knowledge is not: commit news or
        # catch-up resolves those slots again.
        self.status = {i: (STATUS_ACCEPTED if s is STATUS_COMMITTED else s)
                       for i, s in self.status.items()}
        self._reply_frontier = -1
        self._acks = {}
        self._batch = {}
        self._fresh_commits = []
        self._recovering = {}
        self._skip_timer.arm(self.config.skip_interval, self._on_skip_tick)
        self._suspect_timer.arm(REVOKE_TIMEOUT, self._on_suspect_tick)
        # Behind by whatever it missed: pull at once from the most advanced
        # peer; the stall clock asks every peer a tick later if still stuck.
        self._stall = (self.last_applied + 1, self.sim.now, True)
        if self.peers:
            self.send(max(self.peers, key=lambda peer: self.frontier.get(peer, 0)),
                      MenciusCatchup(start=self.last_applied + 1))


class RaftStarMenciusReplica(MenciusReplica):
    """Raft*-Mencius (Coordinated Raft*, Appendix A.4/B.6): the ported
    optimization.  At runtime the port and its source are one
    implementation under two registry names: recovery (`_on_promise`)
    restamps every adopted entry with the recovery ballot — Raft*'s
    ballot-rewriting discipline (Figure 15 BecomeLeader lines 11-13),
    which is also what a Paxos proposer re-proposing under its own ballot
    does."""


class CoordinatedPaxosReplica(MenciusReplica):
    """Coordinated Paxos (Mencius' substrate, Appendix A.3/B.5): the same
    implementation as `RaftStarMenciusReplica`, recovery restamping
    included; the distinction lives in the specs (`repro.specs`), not
    here."""
