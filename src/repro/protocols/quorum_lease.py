"""Paxos Quorum Leases, written once (Figure 7 / Figure 8, Appendix A.1-A.2, B.3).

The paper's claim is that an optimization is a small delta of added and
modified subactions, and that the delta ports mechanically from MultiPaxos
to Raft*.  `QuorumLease` is that delta against the kernel seam both
families expose (`ReplicaBase`, DESIGN.md §14):

* **LocalRead** (added) — a replica answers a read locally when it holds
  leases from at least f+1 replicas (itself included) *and* every log entry
  that modified the key is at or below the commit frontier (`chosenSet`,
  which the Figure 3 mapping turns into `log[0..commitIndex]`).
* **Phase2b / appendOK** (modified) — an acceptor attaches the lease
  holders it has granted to its ack (`_ack_payload`).
* **Learn / LeaderLearn** (modified) — the leader collects holders from the
  acks *and unions in the holders it granted itself* (the implicit ack of
  the refinement mapping — the subtle case the paper's hand-ported version
  got wrong), and only commits once every holder in that set has
  acknowledged the entry (`_commit_gate`).

The two bindings at the bottom supply only what is family-specific: how
"holder h acknowledged index i" is read off the family's ack bookkeeping —
a prefix `match_index` ceiling in Raft*, a per-instance ack set in
MultiPaxos — and, for MultiPaxos, a periodic re-check of gated instances
(Raft*'s heartbeat acks re-evaluate its prefix gate anyway).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.protocols.leases import LeaseManager
from repro.protocols.messages import LeaseAck, LeaseGrant
from repro.protocols.multipaxos import MultiPaxosReplica
from repro.protocols.raftstar import RaftStarReplica
from repro.protocols.types import Command
from repro.sim.units import ms

READ_SWEEP_INTERVAL = ms(50)


class QuorumLease:
    """The PQL delta; mix in ahead of a leadered replica class."""

    # Acks report the lease holders each acceptor granted (Figure 7 line
    # 16 / Figure 8 line 9) — the leader's commit wait depends on hearing
    # them, so empty heartbeats stay real instead of merging into the
    # host beacon.
    beacon_mergeable = False

    #: How often a leader re-evaluates gated entries although no ack
    #: arrived (None: the family's acks already do).
    commit_recheck_interval: Optional[int] = None

    def __init__(self, name, sim, network, config) -> None:
        # key -> highest local log index holding a write to it
        self._last_modified: Dict[str, int] = {}
        # Local reads waiting for their key's writes to commit, grouped by
        # key: key -> [(arrival number, read), ...].  A drain tests each
        # waiting key once, however many reads queue behind it.
        self._pending_reads: Dict[str, List[Tuple[int, Command]]] = {}
        self._read_arrivals = 0
        # peer -> (when, holders) from its latest ack ("received holders")
        self._reported_holders: Dict[str, Tuple[int, frozenset]] = {}
        # `_awaited_holders()` memo: valid while the leases' own holder
        # set is still the object `_awaited_own` and no report has gone
        # stale (`_awaited_until`); a change to the reports resets
        # `_awaited_own` to None.
        self._awaited: FrozenSet[str] = frozenset()
        self._awaited_own: Optional[FrozenSet[str]] = None
        self._awaited_until = -1
        # Members removed by a config change but kept in the replication
        # fan-out until their last acked lease grants expire (see
        # `_splice_peers`).
        self._lingering: Set[str] = set()
        super().__init__(name, sim, network, config)
        self._linger_timer = self.timer("pql-linger")
        self._read_sweep_timer = self.timer("read-sweep")
        self._commit_recheck_timer = self.timer("commit-recheck")
        self.leases = LeaseManager(
            self, duration=config.lease_duration,
            renew_interval=config.lease_renew_interval)
        self.register_handler(LeaseGrant, self.leases.on_grant)
        self.register_handler(LeaseAck,
                              lambda src, msg: self.leases.on_ack(msg))
        self._start_leases()
        self.local_reads_served = 0
        self.forwarded_reads = 0

    # -- added: LocalRead --------------------------------------------------------

    def submit_command(self, command: Command) -> None:
        # LINEARIZABLE reads opt out of the lease path and go through
        # the log (`Command.allows_local_read`).
        if (command.is_read and command.allows_local_read
                and self.leases.has_quorum_lease()):
            if self._key_ready(command.key):
                self._serve(command)
            else:
                self._read_arrivals += 1
                self._pending_reads.setdefault(command.key, []).append(
                    (self._read_arrivals, command))
            return
        if command.is_read:
            self.forwarded_reads += 1
        super().submit_command(command)

    def _key_ready(self, key: str) -> bool:
        """Every write to the key is committed and applied locally."""
        last_mod = self._last_modified.get(key, -1)
        return self.last_applied >= last_mod and self.commit_index >= last_mod

    def _serve(self, command: Command) -> None:
        self.local_reads_served += 1
        self.serve_local_read(command)

    def _entry_entered(self, index: int, command: Command) -> None:
        super()._entry_entered(index, command)
        if command.is_write:
            self._last_modified[command.key] = index

    def _frontier_advanced(self) -> None:
        self._drain_pending_reads()

    def _drain_pending_reads(self) -> None:
        waiting = self._pending_reads
        if not waiting:
            return
        ready = {key for key in waiting if self._key_ready(key)}
        if len(ready) == len(waiting) or self.leases.has_quorum_lease():
            released = ready
        else:
            # Lost the lease while waiting: whatever is not ready falls
            # back to the log path.
            released = set(waiting)
        # Serve in arrival order whatever the grouping: reply order feeds
        # the shared network jitter stream, so any other order moves
        # simulated numbers (DESIGN.md §14, cost contracts).
        reads = sorted(read for key in released for read in waiting.pop(key))
        for _, command in reads:
            if command.key in ready:
                self._serve(command)
            else:
                self.forwarded_reads += 1
                super().submit_command(command)

    def _sweep_pending_reads(self) -> None:
        self._drain_pending_reads()
        self._read_sweep_timer.arm(READ_SWEEP_INTERVAL,
                                   self._sweep_pending_reads)

    # -- modified: Phase2b / appendOK attaches granted leases --------------------

    def _ack_payload(self) -> frozenset:
        return self.leases.active_holders()

    # -- modified: Learn / LeaderLearn waits for every holder --------------------

    def _ack_received(self, peer: str, message: Any) -> None:
        previous = self._reported_holders.get(peer)
        if previous is None or previous[1] != message.lease_holders:
            self._awaited_own = None
        self._reported_holders[peer] = (self.sim.now, message.lease_holders)

    def _awaited_holders(self) -> FrozenSet[str]:
        """Received holders ∪ holders granted by the leader itself (the
        implicit ack), minus the leader.  Reports older than a lease
        duration are stale (their grants have expired) and are ignored.
        Each binding's `_commit_gate` holds an entry back until every one
        of these has acknowledged it, or its local reads could miss the
        write."""
        own = self.leases.active_holders()
        now = self.sim.now
        if own is not self._awaited_own or now > self._awaited_until:
            duration = self.config.lease_duration
            reports = self._reported_holders
            # A stale report stays stale until a fresh ack replaces it,
            # which re-enters it as new: drop it.
            for peer in [peer for peer, (reported_at, _) in reports.items()
                         if reported_at < now - duration]:
                del reports[peer]
            holders = set(own).union(
                *(reported for _, reported in reports.values()))
            holders.discard(self.name)
            self._awaited = frozenset(holders)
            self._awaited_own = own
            self._awaited_until = duration + min(
                (reported_at for reported_at, _ in reports.values()),
                default=now)
        return self._awaited

    def _recheck_commit(self) -> None:
        """Entries gated on a holder become committable once its leases
        expire; re-evaluate them as time passes."""
        self._recheck_gated()
        self._commit_recheck_timer.arm(self.commit_recheck_interval,
                                       self._recheck_commit)

    # -- membership: lingering lease holders -------------------------------------

    def _splice_peers(self, members) -> None:
        """A member removed by a completed config change may still hold
        acked leases for up to one lease duration; the commit gate blocks
        on every holder's ack, so dropping it from the fan-out outright
        would stall all writes until its grants expire.  Keep it in
        `peers` as a quorum-inert learner for one lease duration (its acks
        satisfy the holder wait but never count toward a voter quorum),
        while `lease_peers` stops granting it fresh leases so its holder
        status actually decays."""
        removed = set(self.peers) - set(members) - self._lingering
        if removed:
            self._lingering |= removed
            self._linger_timer.arm(self.config.lease_duration,
                                   self._prune_lingering)
        super()._splice_peers(set(members) | self._lingering)

    def _prune_lingering(self) -> None:
        for name in self._lingering:
            self._reported_holders.pop(name, None)
        self._awaited_own = None
        self._lingering.clear()
        super()._splice_peers(self._current_voters())

    def lease_peers(self) -> List[str]:
        """Grant leases to active members only — lingering learners must
        age out of holder status, not have it renewed."""
        return [p for p in self.peers if p not in self._lingering]

    # -- lifecycle ---------------------------------------------------------------

    def _start_leases(self) -> None:
        self.leases.start()
        self._read_sweep_timer.arm(READ_SWEEP_INTERVAL,
                                   self._sweep_pending_reads)
        if self.commit_recheck_interval is not None:
            self._commit_recheck_timer.arm(self.commit_recheck_interval,
                                           self._recheck_commit)

    def _retire(self) -> None:
        super()._retire()
        # A retired replica must stop granting leases: a fresh grant
        # would re-enter other leaders' holder sets and let this fenced
        # replica keep serving LEASE_LOCAL reads.
        self.leases.stop()
        self._read_sweep_timer.cancel()
        self._commit_recheck_timer.cancel()
        self._pending_reads.clear()

    def on_crash(self) -> None:
        super().on_crash()  # cancels every timer, the leases' own included
        self.leases.on_crash()
        self._pending_reads.clear()
        self._reported_holders.clear()
        self._awaited_own = None
        self._last_modified.clear()

    def on_recover(self) -> None:
        super().on_recover()  # re-enters the durable log: `_entry_entered`
        if not self.retired:
            self._start_leases()
        if self._lingering:
            self._linger_timer.arm(self.config.lease_duration,
                                   self._prune_lingering)


class RaftStarPQLReplica(QuorumLease, RaftStarReplica):
    """Raft*-PQL: the delta bound to Raft*'s prefix acks (Figure 8)."""

    def _commit_gate(self, candidate: int) -> int:
        candidate = super()._commit_gate(candidate)
        peer_state = self._peer_state
        for holder in self._awaited_holders():
            state = peer_state.get(holder)
            candidate = min(candidate,
                            state.match_index if state is not None else -1)
        return candidate

    def _current_voters(self):
        return self._voters.voters


class PaxosPQLReplica(QuorumLease, MultiPaxosReplica):
    """PQL in its original home: the delta bound to MultiPaxos's
    per-instance acks (Figure 7)."""

    commit_recheck_interval = ms(100)

    def _commit_gate(self, index: int) -> bool:
        acked = self._accept_counts.get(index, ())
        return super()._commit_gate(index) and all(
            holder in acked for holder in self._awaited_holders())

    def _recheck_gated(self) -> None:
        # Instances choose out of order, so each unchosen one is
        # re-evaluated on its own ack set.
        if self.phase1_succeeded:
            for index in list(self._accept_counts):
                self._try_choose(index)

    def _current_voters(self):
        return self._config_log.current
