"""Raft (Figure 2, black text).

Faithful points that matter to the paper's analysis (§3):

* followers **erase** extraneous entries to match the leader's log;
* the leader **never rewrites** terms of existing entries — a newly elected
  leader replicates old-term entries unchanged;
* consequently the leader only advances `commit_index` by counting replicas
  for entries of its **current term** (the §5.4.2 restriction).

Engineering behaviour from the evaluation's etcd baseline is kept: followers
forward client requests to the leader in batches, and the leader micro-batches
AppendEntries.  Reads are persisted through the log like writes (§4.4:
"a strongly consistent read operation is performed by persisting the
operation into the log as if it were a write").
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.membership import VoterView
from repro.protocols.base import ReplicaBase
from repro.protocols.config import APPEND_FLUSH_INTERVAL, ClusterConfig
from repro.protocols.messages import (
    AppendEntries,
    AppendEntriesReply,
    CatchUpReply,
    CatchUpSnapshot,
    ConfigChange,
    RequestVote,
    RequestVoteReply,
)
from repro.protocols.types import Command, Entry, OpType

MAX_BATCH_ENTRIES = 64


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class _PeerState:
    """A leader's per-peer replication record.

    One slotted object instead of six parallel dicts (`next_index`,
    `match_index`, `_sent_hwm`, `_sent_commit`, `_hb_match`,
    `_last_progress`): the reply fast path touches most of these per
    message, and one dict probe per reply replaces up to six."""

    __slots__ = ("next_index", "match_index", "sent_hwm", "sent_commit",
                 "hb_match", "last_progress")

    def __init__(self, next_index: int = 0, match_index: int = -1,
                 sent_hwm: int = -1, sent_commit: int = -1) -> None:
        self.next_index = next_index
        self.match_index = match_index
        self.sent_hwm = sent_hwm
        self.sent_commit = sent_commit
        self.hb_match = -1
        self.last_progress = 0


class RaftReplica(ReplicaBase):
    """A Raft replica."""

    # An empty Raft heartbeat (no entries, no commit news) only resets the
    # follower's election timer, so the host mux may merge it into the
    # host-level beacon.  Subclasses whose heartbeat replies carry state
    # (lease liveness, lease-holder sets) override this back to False.
    beacon_mergeable = True

    _durable = ("log", "current_term", "voted_for", "_voters")

    def __init__(self, name, sim, network, config: ClusterConfig) -> None:
        super().__init__(name, sim, network, config)
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log: List[Entry] = []
        self.commit_index = -1
        self.role = Role.FOLLOWER

        self._votes: set = set()
        # Leader-side per-peer replication state, one slotted record per
        # peer (next/match index, pipelining high-water marks, stall
        # detection) — see `_PeerState`.
        self._peer_state: Dict[str, _PeerState] = {}
        self._peer_records: List[_PeerState] = []
        # Entries-tuple reuse for `_send_append`: (start, stop, tuple) of
        # the last window built from the log.  Valid while this replica
        # leads (its log is append-only for the term, so a (start, stop)
        # slice never changes content); reset on any role change.
        self._batch_cache: Optional[tuple] = None

        # Dynamic membership (joint consensus): None until the first CONFIG
        # entry applies — every quorum expression below keeps its original
        # static-`config.majority` form while this is None, so a run without
        # membership changes is bit-identical to the pre-membership code.
        self._voters: Optional[VoterView] = None

        self._heartbeat_timer = self.timer("heartbeat")
        self._flush_timer = self.timer("append-flush")

        self.register_handler(RequestVote, self._on_request_vote)
        self.register_handler(RequestVoteReply, self._on_vote_reply)
        self.register_handler(AppendEntries, self._on_append_entries)
        self.register_handler(AppendEntriesReply, self._on_append_reply)
        self.register_handler(CatchUpSnapshot, self._on_catch_up)
        self.register_handler(CatchUpReply, self._on_catch_up_reply)
        self._boot()

    # -- bootstrap ---------------------------------------------------------------

    def _seed_initial_leader(self, leader: str) -> None:
        self.current_term = 1
        self.voted_for = leader
        if self.name == leader:
            # Defer until every replica has registered with the network.
            self.sim.schedule(0, self._assume_leadership, True)

    # -- helpers --------------------------------------------------------------

    @property
    def last_index(self) -> int:
        return len(self.log) - 1

    def term_at(self, index: int) -> int:
        if index < 0:
            return -1
        if index >= len(self.log):
            return -2  # sentinel: no entry
        return self.log[index].term

    @property
    def is_leader(self) -> bool:
        return self.role is Role.LEADER

    @property
    def term(self) -> int:
        return self.current_term

    def on_host_beacon(self, leader: str, term: int) -> None:
        # Conservative: only a beat for the current term resets the timer
        # (term changes travel through real AppendEntries, as before).
        if term == self.current_term and self.role is Role.FOLLOWER:
            self.leader_id = leader
            self._reset_leader_timeout()

    def _step_down(self, term: int, leader: Optional[str] = None) -> None:
        changed_term = term > self.current_term
        if changed_term:
            self.current_term = term
            self.voted_for = None
        self.role = Role.FOLLOWER
        if leader is not None:
            self.leader_id = leader
        self._batch_cache = None
        self._heartbeat_timer.cancel()
        self._flush_timer.cancel()
        self._reset_leader_timeout()

    # -- elections ---------------------------------------------------------------

    def _on_leader_timeout(self) -> None:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self.leader_id = None
        self._votes = {self.name}
        message = RequestVote(
            term=self.current_term,
            candidate=self.name,
            last_log_index=self.last_index,
            last_log_term=self.term_at(self.last_index),
        )
        for peer in self.peers:
            self.send(peer, message)
        self._reset_leader_timeout()

    def _log_up_to_date(self, msg: RequestVote) -> bool:
        my_last_term = self.term_at(self.last_index)
        if msg.last_log_term != my_last_term:
            return msg.last_log_term > my_last_term
        return msg.last_log_index >= self.last_index

    def _on_request_vote(self, src: str, msg: RequestVote) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        granted = (
            msg.term == self.current_term
            and self.voted_for in (None, msg.candidate)
            and self._log_up_to_date(msg)
        )
        extras: Dict[int, Entry] = {}
        if granted:
            self.voted_for = msg.candidate
            self._reset_leader_timeout()
            extras = self._vote_extras(msg.last_log_index)
        self.send(
            src,
            RequestVoteReply(
                term=self.current_term,
                voter=self.name,
                granted=granted,
                extra_entries=extras,
            ),
        )

    def _vote_extras(self, candidate_last_index: int) -> Dict[int, Entry]:
        """Raft sends nothing extra; Raft* overrides (Figure 2a lines 14-16)."""
        return {}

    def _on_vote_reply(self, src: str, msg: RequestVoteReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.CANDIDATE or msg.term != self.current_term or not msg.granted:
            return
        self._votes.add(msg.voter)
        self._merge_vote_extras(msg)
        if self._voters is None:
            if len(self._votes) >= self.config.majority:
                self._assume_leadership()
        elif self._voters.quorum(self._votes):
            # Joint rule while a change is in flight: a majority of Cold
            # AND of Cnew — two leaders on disjoint voter views cannot
            # both win because any two joint quorums intersect.
            self._assume_leadership()

    def _merge_vote_extras(self, msg: RequestVoteReply) -> None:
        """Raft ignores extras; Raft* merges safe values (Figure 2a 22-29)."""

    def _assume_leadership(self, initial: bool = False) -> None:
        self.role = Role.LEADER
        self.leader_id = self.name
        self._leader_timer.cancel()
        self._batch_cache = None
        self._peer_state = {
            peer: _PeerState(next_index=self.last_index + 1,
                             sent_hwm=self.last_index)
            for peer in self.peers
        }
        self._peer_records = list(self._peer_state.values())
        if not initial:
            # Commit-liveness no-op: gives the new term an entry to count.
            self._append_to_log(Command(
                op=OpType.NOP, client_id=f"__leader__{self.name}", seq=self.current_term,
                value_size=0,
            ))
        if self._voters is not None and self._voters.phase == "joint":
            # Safety net: the previous leader died between committing the
            # joint config and appending the final one — the new leader
            # finishes the transition so the group cannot stay joint
            # forever.
            self._append_config(ConfigChange(
                kind="final", epoch=self._voters.epoch,
                new=tuple(sorted(self._voters.newest))))
        self._broadcast_appends()
        self._heartbeat_timer.arm(self.config.heartbeat_interval, self._on_heartbeat)

    def _on_heartbeat(self) -> None:
        if self.role is not Role.LEADER:
            return
        refresh = self.beacon_refresh_due()
        stall_threshold = max(6 * self.config.heartbeat_interval, 600_000)
        now = self.sim.now
        for peer in self.peers:
            # Loss recovery: rewind the pipeline only after a *long* stall
            # (well beyond any RTT plus CPU queueing), or a slow-but-healthy
            # follower gets buried under retransmissions.
            state = self._peer(peer)
            match = state.match_index
            if match > state.hb_match:
                state.last_progress = now
            elif match < state.sent_hwm:
                if now - state.last_progress > stall_threshold:
                    state.sent_hwm = match
                    state.next_index = (min(state.next_index, match + 1)
                                        if match >= 0 else 0)
                    state.last_progress = now
            state.hb_match = match
            # A peer covered by the merged host beacon needs no empty
            # heartbeat: send only if there are entries or commit news —
            # except on refresh ticks, whose real keepalive re-advertises
            # the commit frontier in case the append that first carried it
            # was dropped (`_sent_commit` advances at send, not delivery).
            covered = (not refresh) and self.beacon_covered(peer)
            self._send_append(peer, heartbeat=not covered)
        self._heartbeat_timer.arm(self.config.heartbeat_interval, self._on_heartbeat)

    # -- client path -----------------------------------------------------------------

    def submit_command(self, command: Command) -> None:
        if self.role is Role.LEADER:
            if self.obs is not None:
                self.obs_phase(command.trace_id, "append")
            self._append_to_log(command)
            self._schedule_flush()
        else:
            self.forward_to_leader(command)

    def _append_to_log(self, command: Command) -> None:
        term = self.current_term
        self.log.append(Entry(term, command, term))
        self._entry_entered(len(self.log) - 1, command)

    def _append_config(self, change: ConfigChange) -> None:
        """Leader-originated config entry (the auto-appended `final`).
        The `__config__` client id keeps it inside the store's dedup
        window so a second leader re-appending the same epoch is answered
        idempotently rather than double-applied (the epoch guard in
        `_on_config_applied` makes the re-apply a no-op anyway)."""
        self._append_to_log(change.encode(
            client_id=f"__config__{self.name}", seq=change.epoch))
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if not self._flush_timer.armed:
            self._flush_timer.arm(APPEND_FLUSH_INTERVAL, self._broadcast_appends)

    # -- replication -----------------------------------------------------------------

    def _broadcast_appends(self) -> None:
        self._flush_timer.cancel()
        if self.role is not Role.LEADER:
            return
        for peer in self.peers:
            self._send_append(peer)

    def _peer(self, peer: str) -> _PeerState:
        """This leader's replication record for `peer` (created on demand
        with the pre-leadership defaults, though `_assume_leadership`
        seeds every peer before any caller runs)."""
        state = self._peer_state.get(peer)
        if state is None:
            state = self._peer_state[peer] = _PeerState(
                next_index=self.last_index + 1)
            self._peer_records.append(state)
        return state

    def _send_append(self, peer: str, heartbeat: bool = False) -> None:
        """Ship the next window of entries to `peer`.

        Pipelined: each call sends only entries beyond what was already
        shipped (`sent_hwm`), with `prev` pointing at the previous shipped
        entry, so back-to-back flushes do not retransmit the in-flight
        suffix.  Sends nothing when there is neither new content nor a new
        commit index to advertise, unless this is a heartbeat.
        """
        state = self._peer_state.get(peer)
        if state is None:
            state = self._peer(peer)
        start = state.next_index
        shipped = state.sent_hwm + 1
        if shipped > start:
            start = shipped
        commit = self.commit_index
        last = len(self.log) - 1
        if start > last:
            # Nothing new to ship — the common case for a flush tick on an
            # idle pipeline.  Bail before touching the log unless a commit
            # advance (or an explicit heartbeat) must be advertised.
            if not heartbeat and commit <= state.sent_commit:
                return
            # Anchor the consistency check at a point the peer is known to
            # have.
            prev = state.match_index
            if state.sent_hwm < prev:
                state.sent_hwm = prev
            state.sent_commit = commit
            self.send(peer, AppendEntries(
                term=self.current_term,
                leader=self.name,
                prev_index=prev,
                prev_term=self.term_at(prev),
                entries=(),
                leader_commit=commit,
            ))
            return
        # The message aliases the leader's log entries, and receivers
        # adopt those references into their own logs: safe because an
        # `Entry` is never mutated in place anywhere — Raft*'s ballot
        # rewrite replaces entry objects rather than writing through
        # shared ones.  The window tuple itself is cached per (start,
        # stop): fan-out to several peers at the same offset re-sends one
        # tuple instead of re-slicing the log per peer.
        stop = start + MAX_BATCH_ENTRIES
        if stop > last + 1:
            stop = last + 1
        cached = self._batch_cache
        if cached is not None and cached[0] == start and cached[1] == stop:
            entries = cached[2]
        else:
            entries = tuple(self.log[start:stop])
            self._batch_cache = (start, stop, entries)
        prev = start - 1
        hwm = prev + len(entries)
        if state.sent_hwm < hwm:
            state.sent_hwm = hwm
        state.sent_commit = commit
        self.send(peer, AppendEntries(
            term=self.current_term,
            leader=self.name,
            prev_index=prev,
            prev_term=self.term_at(prev),
            entries=entries,
            leader_commit=commit,
        ))

    def _heed(self, term: int, leader: str) -> bool:
        """Follow `leader` at `term`, unless the term is stale (False)."""
        if term < self.current_term:
            return False
        if term > self.current_term or self.role is not Role.FOLLOWER:
            self._step_down(term, leader=leader)
        self.leader_id = leader
        self._reset_leader_timeout()
        return True

    def _on_append_entries(self, src: str, msg: AppendEntries) -> None:
        if not self._heed(msg.term, msg.leader):
            self.send(src, AppendEntriesReply(
                term=self.current_term, follower=self.name,
                success=False, match_index=self.last_index,
            ))
            return
        success, match = self._try_append(msg)
        if success:
            self._advance_commit_follower(min(msg.leader_commit, match))
        self.send(src, AppendEntriesReply(
            self.current_term, self.name, success, match,
            self._ack_payload()))

    def _try_append(self, msg: AppendEntries) -> tuple:
        """Raft semantics: consistency check, erase conflicts, append.
        Returns (success, match_index)."""
        if msg.prev_index >= 0 and self.term_at(msg.prev_index) != msg.prev_term:
            return False, min(self.last_index, msg.prev_index - 1)
        insert = msg.prev_index + 1
        entered = self._entry_entered
        for offset, entry in enumerate(msg.entries):
            index = insert + offset
            if index <= self.last_index:
                if self.log[index].term != entry.term:
                    # Conflict: erase the extraneous suffix (the step that has
                    # no MultiPaxos counterpart, §3).
                    del self.log[index:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
            entered(index, entry.command)
        return True, msg.prev_index + len(msg.entries)

    def _advance_commit_follower(self, new_commit: int) -> None:
        if new_commit > self.commit_index:
            self.commit_index = min(new_commit, self.last_index)
            self._apply_to(self.commit_index, self.log)
            self._frontier_advanced()

    def _on_append_reply(self, src: str, msg: AppendEntriesReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.LEADER or msg.term != self.current_term:
            return
        peer = msg.follower
        state = self._peer(peer)
        if msg.success:
            if msg.match_index > state.match_index:
                state.match_index = msg.match_index
            state.next_index = state.match_index + 1
            self._ack_received(peer, msg)
            self._leader_advance_commit()
            self._send_append(peer)
        else:
            next_index = state.next_index - 1
            if msg.match_index + 1 < next_index:
                next_index = msg.match_index + 1
            if next_index < 0:
                next_index = 0
            state.next_index = next_index
            # Rewind the pipeline so the suffix is resent from next_index.
            state.sent_hwm = next_index - 1
            self._handle_append_reject(peer, msg)
            self._send_append(peer)

    def _handle_append_reject(self, peer: str, msg: AppendEntriesReply) -> None:
        """Hook for Raft* (reject-because-longer needs no-op padding)."""

    def _leader_advance_commit(self) -> None:
        """Advance commit_index to the highest majority-replicated index
        the commit gate lets through."""
        if self._voters is not None:
            # Membership-aware commit rule: the highest index replicated
            # on a quorum of EVERY active voter group (one group when
            # stable, Cold and Cnew while joint).  Acks from non-voters
            # (a catching-up joiner, a retired replica) are inert.
            peer_state = self._peer_state
            last = self.last_index
            own = self.name

            def match_of(name: str) -> int:
                if name == own:
                    return last
                state = peer_state.get(name)
                return state.match_index if state is not None else -1

            candidate = min(self._voters.commit_index(match_of), last)
        else:
            matches = sorted(state.match_index for state in self._peer_records)
            # Index replicated on at least `majority` replicas including
            # self: the f-th largest peer match (0-indexed from the end).
            candidate = matches[len(matches) - self.config.f]
            candidate = min(candidate, self.last_index)
        candidate = self._commit_gate(candidate)
        if candidate > self.commit_index:
            self.commit_index = candidate
            self._apply_to(candidate, self.log)
            self._frontier_advanced()
            self._schedule_flush()  # propagate the new commit index

    def _commit_gate(self, candidate: int) -> int:
        """The highest index <= `candidate` (majority-replicated) that may
        commit.  Raft restricts the counted entry to the current term
        (§5.4.2)."""
        while (candidate > self.commit_index
               and self.term_at(candidate) != self.current_term):
            candidate -= 1
        return candidate

    # -- dynamic membership (joint consensus) -------------------------------------
    #
    # The Raft side of the paper's reconfiguration parallel: a change from
    # Cold to Cnew goes through an intermediate JOINT config under which
    # every election and commit needs a majority of both sets.  Two log
    # entries drive it — `joint(e)` then `final(e)` — and both take effect
    # at APPLY time, so every replica of the group switches voter views at
    # the same log position and replay after a crash is idempotent (the
    # epoch guard skips already-completed transitions).  This trades the
    # canonical effect-at-append rule for determinism the repo's replay
    # paths rely on; the driver serializes changes (one epoch in flight),
    # which keeps the simplification safe.

    def _on_config_applied(self, index: int, command: Command) -> None:
        change = ConfigChange.decode(command)
        if change.kind == "joint":
            if change.epoch != self.config_epoch + 1:
                return  # replay of a completed epoch, or a stale retry
            if self._voters is not None and self._voters.phase == "joint":
                return
            old = frozenset(change.old)
            new = frozenset(change.new)
            self._voters = VoterView.joint(old, new, change.epoch)
            self._splice_peers(old | new)
            if self.role is Role.LEADER:
                self._catch_up_new_peers(new - old)
                # Cold∧Cnew is now in force; immediately log the final
                # config to retire Cold (committed under the joint rule).
                self._append_config(ConfigChange(
                    kind="final", epoch=change.epoch,
                    new=tuple(sorted(new))))
        elif change.kind == "final":
            if change.epoch != self.config_epoch + 1:
                return
            new = frozenset(change.new)
            self.config_epoch = change.epoch
            self._voters = VoterView.stable(new, change.epoch)
            self._adopt_members(new)

    def _splice_peers(self, members) -> None:
        """Leader-side records for new peers are created on demand;
        records of removed peers become inert — the membership-aware
        commit rule only consults voter names."""
        super()._splice_peers(members)
        if self.role is Role.LEADER:
            for peer in self.peers:
                self._peer(peer)
        self._batch_cache = None

    def _catch_up_new_peers(self, joiners) -> None:
        """Ship a fresh joiner the full log in one snapshot message.  The
        repo never compacts logs, so replaying it through the ordinary
        apply path rebuilds store, dedup windows, and config state exactly
        (`KVStore.export_full`/`install_full` is the compaction-ready
        alternative, property-tested in tests/membership/)."""
        for peer in sorted(joiners):
            state = self._peer(peer)
            if state.match_index >= 0:
                continue  # already has log state; normal appends suffice
            self.send(peer, CatchUpSnapshot(
                sender=self.name, entries=tuple(self.log),
                commit_index=self.commit_index, term=self.current_term))

    def _on_catch_up(self, src: str, msg: CatchUpSnapshot) -> None:
        if self._heed(msg.term, msg.sender):
            super()._on_catch_up(src, msg)

    def _installed(self, src: str, msg: CatchUpSnapshot) -> None:
        self._advance_commit_follower(msg.commit_index)

    def _on_catch_up_reply(self, src: str, msg: CatchUpReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.LEADER or msg.term != self.current_term:
            return
        state = self._peer(msg.follower)
        if msg.last_index > state.match_index:
            state.match_index = msg.last_index
            state.next_index = msg.last_index + 1
            if state.sent_hwm < msg.last_index:
                state.sent_hwm = msg.last_index
            self._leader_advance_commit()

    def _retire(self) -> None:
        super()._retire()
        if self.role is Role.LEADER:
            self._step_down(self.current_term)

    # -- lifecycle ------------------------------------------------------------------

    def _restart(self) -> None:
        self.commit_index = -1
        self._votes = set()
        self._step_down(self.current_term)
