"""MultiPaxos (Figure 1).

A leader-based MultiPaxos: phase 1 is batched over all unchosen instances
(`Prepare` carries the smallest unchosen instance id; `Promise` returns every
accepted instance at or above it), phase 2 runs one (micro-batched) `Accept`
per client command, and instances commit out of order on f+1 acceptances
while execution stays in instance order.

Structural differences from Raft that §3 calls out are visible here:

* acceptors **overwrite** accepted values/ballots, never erase;
* the proposer re-proposes safe values with **its own ballot** (the accepted
  ballot is rewritten, unlike Raft's immutable terms);
* commit is tracked per instance, so a later instance can be chosen while an
  earlier one is still open.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.membership import DEFAULT_ALPHA, ConfigLog, is_quorum
from repro.protocols.base import ReplicaBase
from repro.protocols.config import APPEND_FLUSH_INTERVAL, ClusterConfig
from repro.protocols.messages import (
    Accept,
    Accepted,
    CatchUpSnapshot,
    ConfigChange,
    Learn,
    Prepare,
    Promise,
)
from repro.protocols.types import Ballot, Command, Entry, OpType

MAX_ACCEPT_BATCH = 256


class MultiPaxosReplica(ReplicaBase):
    """A MultiPaxos server (proposer + acceptor + learner)."""

    # An idle leader's empty Accept only resets follower prepare timers
    # and re-advertises an unchanged commit frontier, so the host mux may
    # merge it into the host beacon.  PQL-on-Paxos overrides to False
    # (its Accepted replies carry lease-holder sets).
    beacon_mergeable = True

    _durable = ("instances", "ballot", "last_index", "_config_log")

    def __init__(self, name, sim, network, config: ClusterConfig) -> None:
        super().__init__(name, sim, network, config)
        self.ballot = Ballot(0, "")
        self.phase1_succeeded = False
        # Commit frontier last advertised by an (empty) heartbeat: beacon
        # suppression only applies while it is unchanged.  Refresh ticks
        # (`beacon_refresh_due`) still send real empty Accepts so a
        # follower that missed the one frontier-news broadcast (loss, a
        # partition window) is healed within a bounded number of beats.
        self._last_idle_commit = -1
        # The commit frontier at the last refresh tick (`_stalled`).
        self._refresh_mark = -1
        self.instances: Dict[int, Entry] = {}  # accepted values
        self.chosen: Dict[int, Command] = {}
        self.commit_index = -1  # chosen-and-contiguous frontier
        self.last_index = -1  # the highest instance accepted
        # Unapplied instances accepted from the leader under the CURRENT
        # ballot: the only ones its frontier news may apply (they are its
        # proposals, hence the chosen values).  A hole, or an entry left
        # from an older ballot, is pulled instead, at most once per
        # heartbeat interval.  The leader's self-accepts never enter.
        self._fresh: Set[int] = set()
        self._pulled_at = -config.heartbeat_interval

        # Dynamic membership (α-bounded reconfiguration): None until the
        # first CONFIG entry applies — every quorum expression below keeps
        # its original static-`config.majority` form while this is None.
        # A config decided at slot s governs slots >= s+α; the proposer
        # defers commands that would open a slot past frontier+α so the
        # slot→voters mapping stays sound.
        self._config_log: Optional[ConfigLog] = None
        self._deferred_commands: List[Command] = []

        # proposer state
        self.next_instance = 0
        self._promises: Dict[str, Promise] = {}
        # acceptOKs for the CURRENT ballot, per unchosen instance: reset
        # whenever the ballot changes (`_adopt_ballot`), dropped when the
        # instance is chosen — bounded by the in-flight window.
        self._accept_counts: Dict[int, Set[str]] = {}
        self._accept_buffer: Dict[int, Command] = {}
        self._heartbeat_timer = self.timer("heartbeat")
        self._flush_timer = self.timer("accept-flush")

        self.register_handler(Prepare, self._on_prepare)
        self.register_handler(Promise, self._on_promise)
        self.register_handler(Accept, self._on_accept)
        self.register_handler(Accepted, self._on_accepted)
        self.register_handler(Learn, self._on_learn)
        self.register_handler(CatchUpSnapshot, self._on_catch_up)
        self._boot()

    # -- bootstrap --------------------------------------------------------------

    def _seed_initial_leader(self, leader: str) -> None:
        self.ballot = Ballot(1, leader)
        if self.name == leader:
            self.phase1_succeeded = True
            self._heartbeat_timer.arm(self.config.heartbeat_interval, self._on_heartbeat)

    # -- helpers --------------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.phase1_succeeded

    @property
    def term(self) -> int:
        return self.ballot.round

    def on_host_beacon(self, leader: str, term: int) -> None:
        # Only a beat matching the ballot we already follow counts; ballot
        # changes travel through real Prepare/Accept traffic.
        if (not self.phase1_succeeded and self.leader_id == leader
                and self.ballot.round == term):
            self._reset_leader_timeout()

    def first_unchosen(self) -> int:
        index = self.commit_index + 1
        while index in self.chosen:
            index += 1
        return index

    def _adopt_ballot(self, ballot: Ballot) -> None:
        """Every ballot change goes through here.  An acceptOK counts only
        toward the ballot it was sent for, so the ack sets start over."""
        self.ballot = ballot
        self.phase1_succeeded = False
        self._accept_counts = {}
        self._fresh = set()

    # -- phase 1 ----------------------------------------------------------------------

    def _on_leader_timeout(self) -> None:
        """Phase1a: adopt a higher ballot and ask everyone to promise."""
        self._adopt_ballot(self.ballot.next_for(self.name))
        self.leader_id = None
        self._promises = {}
        unchosen = self.first_unchosen()
        for peer in self.peers:
            self.send(peer, Prepare(ballot=self.ballot, proposer=self.name, unchosen=unchosen))
        self._promises[self.name] = self._promise(unchosen)  # to ourselves
        self._reset_leader_timeout()

    def _promise(self, unchosen: int) -> Promise:
        """Phase1b: every instance accepted from `unchosen` on."""
        return Promise(ballot=self.ballot, acceptor=self.name, instances={
            i: e.copy() for i, e in self.instances.items() if i >= unchosen
        }, log_tail=self.last_index)

    def _on_prepare(self, src: str, msg: Prepare) -> None:
        if msg.ballot <= self.ballot:
            return  # Paxos acceptors simply ignore stale prepares
        self._adopt_ballot(msg.ballot)
        self.leader_id = msg.proposer
        self._reset_leader_timeout()
        self.send(src, self._promise(msg.unchosen))

    def _on_promise(self, src: str, msg: Promise) -> None:
        if msg.ballot != self.ballot or self.phase1_succeeded:
            return
        self._promises[msg.acceptor] = msg
        if self._config_log is None:
            if len(self._promises) >= self.config.majority:
                self._phase1_succeed()
        elif self._phase1_quorum():
            self._phase1_succeed()

    def _phase1_quorum(self) -> bool:
        """Membership-aware phase-1 quorum: the promise set must satisfy
        a majority of EVERY voter set in the config history, so the
        prepare quorum intersects the accept quorum of every open slot
        regardless of which config governs it.  Conservative (history is
        short — one entry per completed change) but unconditionally
        safe."""
        acks = set(self._promises)
        log = self._config_log
        if not is_quorum(log.initial, acks):
            return False
        return all(is_quorum(voters, acks)
                   for _eff, voters, _epoch in log.entries)

    def _phase1_succeed(self) -> None:
        """Phase1Succeed: adopt the highest-ballot value per reported
        instance; fill holes with no-ops; re-propose everything."""
        promises = list(self._promises.values())
        start = self.first_unchosen()
        end = max([p.log_tail for p in promises] + [self.last_index])
        recovered: Dict[int, Command] = {}
        for index in range(start, end + 1):
            best: Optional[Entry] = None
            for promise in promises:
                entry = promise.instances.get(index)
                if entry is not None and (best is None or entry.ballot > best.ballot):
                    best = entry
            own = self.instances.get(index)
            if own is not None and (best is None or own.ballot > best.ballot):
                best = own
            command = best.command if best is not None else Command(
                op=OpType.NOP, client_id=f"__fill__{self.name}",
                seq=self.ballot.round * 1_000_000 + index, value_size=0,
            )
            recovered[index] = command
        self.phase1_succeeded = True
        self.leader_id = self.name
        self.next_instance = end + 1
        self._leader_timer.cancel()
        if recovered:
            self._accept_buffer.update(recovered)
            self._flush_accepts()
        self._heartbeat_timer.arm(self.config.heartbeat_interval, self._on_heartbeat)

    # -- client path / phase 2 -------------------------------------------------------

    def submit_command(self, command: Command) -> None:
        if not self.phase1_succeeded:
            self.forward_to_leader(command)
            return
        if (self._config_log is not None
                and not self._config_log.window_open(self.next_instance,
                                                     self.commit_index)):
            # The α gate: opening this slot would outrun the window that
            # makes the slot→voters mapping sound.  Defer; the frontier
            # advance drains the buffer.
            self._deferred_commands.append(command)
            return
        instance = self.next_instance
        self.next_instance += 1
        if self.obs is not None:
            self.obs_phase(command.trace_id, "append")
        self._accept_buffer[instance] = command
        if len(self._accept_buffer) >= MAX_ACCEPT_BATCH:
            self._flush_accepts()
        elif not self._flush_timer.armed:
            self._flush_timer.arm(APPEND_FLUSH_INTERVAL, self._flush_accepts)

    def _flush_accepts(self) -> None:
        self._flush_timer.cancel()
        if not self.phase1_succeeded or not self._accept_buffer:
            return
        batch = self._accept_buffer
        self._accept_buffer = {}
        message = Accept(
            ballot=self.ballot,
            proposer=self.name,
            instances=batch,
            commit_index=self.commit_index,
        )
        # Accept our own proposals first (the implicit self-accept).
        self._accept_locally(message)
        for peer in self.peers:
            self.send(peer, message)

    def _on_heartbeat(self) -> None:
        if not self.phase1_succeeded:
            return
        refresh = self.beacon_refresh_due()
        if refresh:
            self._accept_buffer.update(self._stalled())
        if self._accept_buffer:
            self._flush_accepts()
        else:
            empty = Accept(ballot=self.ballot, proposer=self.name,
                           instances={}, commit_index=self.commit_index)
            frontier_news = self.commit_index != self._last_idle_commit
            sent_any = False
            for peer in self.peers:
                # Beacon-covered peers skip the empty Accept unless the
                # commit frontier moved since the last idle broadcast — or
                # this is a refresh tick re-advertising it in case that
                # one broadcast was dropped on the way to this peer.
                if frontier_news or refresh or not self.beacon_covered(peer):
                    self.send(peer, empty)
                    sent_any = True
            if sent_any:
                self._last_idle_commit = self.commit_index
        self._heartbeat_timer.arm(self.config.heartbeat_interval, self._on_heartbeat)

    def _stalled(self) -> Dict[int, Command]:
        """The open instances (at most `MAX_ACCEPT_BATCH`) this refresh
        tick proposes again: none unless the frontier stood still since the
        last tick under an unchosen instance — its Accept or acceptOKs were
        lost, or (PQL) a lease holder that missed the Accept holds it back
        at the commit gate."""
        commit, mark = self.commit_index, self._refresh_mark
        self._refresh_mark = commit
        acks = self._accept_counts.get(commit + 1)
        if commit != mark or not acks:
            return {}
        return {i: self.instances[i].command
                for i in sorted(self._accept_counts)[:MAX_ACCEPT_BATCH]}

    def _accept_into_log(self, msg: Accept) -> None:
        """Phase2b's write: overwrite each instance with the proposer's
        value and ballot (acceptors never erase)."""
        round_ = msg.ballot.round
        entered = self._entry_entered
        for index, command in msg.instances.items():
            self.instances[index] = Entry(round_, command, round_)
            self.last_index = max(self.last_index, index)
            entered(index, command)

    def _accept_locally(self, msg: Accept) -> None:
        self._accept_into_log(msg)
        for index in msg.instances:
            self._record_acceptance(index, self.name)

    def _on_accept(self, src: str, msg: Accept) -> None:
        if msg.ballot < self.ballot:
            return
        if msg.ballot > self.ballot:
            self._adopt_ballot(msg.ballot)
        self.leader_id = msg.proposer
        self._reset_leader_timeout()
        self._accept_into_log(msg)
        self._fresh.update(i for i in msg.instances if i > self.commit_index)
        self._learn_commit_frontier(src, msg.commit_index)
        if msg.instances:
            self.send(src, Accepted(
                ballot=msg.ballot,
                acceptor=self.name,
                instance_ids=sorted(msg.instances),
                lease_holders=self._ack_payload(),
            ))

    def _on_accepted(self, src: str, msg: Accepted) -> None:
        if not self.phase1_succeeded or msg.ballot != self.ballot:
            return
        self._ack_received(msg.acceptor, msg)
        for index in msg.instance_ids:
            self._record_acceptance(index, msg.acceptor)

    def _record_acceptance(self, index: int, acceptor: str) -> None:
        """Count a current-ballot acceptOK.  Late acks for chosen
        instances are ignored."""
        if index in self.chosen:
            return
        self._accept_counts.setdefault(index, set()).add(acceptor)
        self._try_choose(index)

    def _try_choose(self, index: int) -> None:
        """Choose unchosen `index` if a quorum accepted it and the commit
        gate lets it through."""
        if (self._accept_quorum(index, self._accept_counts[index])
                and self._commit_gate(index)):
            self._choose(index)

    def _accept_quorum(self, index: int, voters: Set[str]) -> bool:
        """Whether `voters` is an accept quorum for `index` under the
        config governing that slot — α-aware: acks from non-voters (a
        catching-up joiner, a retired replica) are inert."""
        if self._config_log is not None:
            return is_quorum(self._config_log.voters_at(index), voters)
        return len(voters) >= self.config.majority

    def _commit_gate(self, index: int) -> bool:
        """Whether instance `index`, accepted by a quorum, may be chosen."""
        return True

    def _choose(self, index: int) -> None:
        entry = self.instances.get(index)
        if entry is None:
            return
        self.chosen[index] = entry.command
        self._accept_counts.pop(index, None)
        self._advance_commit_frontier()

    def _advance_commit_frontier(self) -> None:
        frontier = self.first_unchosen() - 1
        advanced = frontier > self.commit_index
        self.commit_index = frontier
        self._apply_to(frontier, self.instances)
        if advanced and self._deferred_commands:
            # The α window may have re-opened: re-submit in arrival order
            # (still-closed windows simply re-defer).
            deferred = self._deferred_commands
            self._deferred_commands = []
            for command in deferred:
                self.submit_command(command)
        if advanced and self.phase1_succeeded and not self._flush_timer.armed:
            # Let acceptors learn the new frontier promptly.
            self._flush_timer.arm(APPEND_FLUSH_INTERVAL, self._flush_accepts_or_learn)
        self._frontier_advanced()

    def _flush_accepts_or_learn(self) -> None:
        if self._accept_buffer:
            self._flush_accepts()
        else:
            learn = Learn(ballot=self.ballot, proposer=self.name,
                          commit_index=self.commit_index)
            for peer in self.peers:
                self.send(peer, learn)

    def _learn_commit_frontier(self, src: str, commit_index: int) -> None:
        """A follower learns chosen-ness through the frontier `src` sent
        at its ballot, applies up to it what is `_fresh`, and pulls the
        rest from `src`."""
        fresh = self._fresh
        frontier = self.commit_index
        while frontier < commit_index and frontier + 1 in fresh:
            frontier += 1
            fresh.remove(frontier)
            self.chosen[frontier] = self.instances[frontier].command
        self.commit_index = frontier
        self._apply_to(frontier, self.instances)
        now = self.sim.now
        if (frontier < commit_index
                and now - self._pulled_at >= self.config.heartbeat_interval):
            self._pulled_at = now
            self.send(src, Learn(ballot=self.ballot, proposer=self.name,
                                 commit_index=frontier))
        self._frontier_advanced()

    def _on_learn(self, src: str, msg: Learn) -> None:
        if self.phase1_succeeded:
            # A pull: re-propose, at this ballot, the chosen values past
            # the puller's frontier (re-proposing a chosen value is safe).
            start = msg.commit_index + 1
            end = min(self.commit_index + 1, start + MAX_ACCEPT_BATCH)
            if start < end:
                self.send(src, Accept(
                    ballot=self.ballot, proposer=self.name,
                    instances={i: self.chosen[i] for i in range(start, end)},
                    commit_index=self.commit_index))
        elif msg.ballot == self.ballot:
            self._learn_commit_frontier(src, msg.commit_index)

    # -- dynamic membership (α-bounded reconfiguration) ---------------------------
    #
    # The Paxos side of the paper's reconfiguration parallel: ONE logged
    # config entry, no joint phase — a config chosen at slot s governs
    # slots >= s+α (Lamport's scheme), and the proposer never opens a slot
    # more than α past the commit frontier, so by the time a slot's voters
    # could have changed, the deciding config is already applied on every
    # replica at the same log position.

    def _on_config_applied(self, index: int, command: Command) -> None:
        change = ConfigChange.decode(command)
        if self._config_log is None:
            self._config_log = ConfigLog(
                initial=frozenset([self.name, *self.peers]),
                alpha=change.alpha or DEFAULT_ALPHA)
        log = self._config_log
        if change.epoch != log.epoch + 1:
            return  # replay of a completed epoch, or a stale retry
        log.decide(index, change.new, change.epoch)
        self.config_epoch = change.epoch
        new = frozenset(change.new)
        joiners = new - frozenset([self.name, *self.peers])
        # `voters_at` keeps judging past slots by their governing config,
        # so a removed replica's acks stay countable for the slots it
        # still governs.
        self._adopt_members(new)
        if self.phase1_succeeded and joiners:
            self._catch_up_new_peers(joiners)

    def _catch_up_new_peers(self, joiners) -> None:
        """Ship a fresh joiner the leader's contiguous instance prefix in
        one snapshot; the joiner replays it through the ordinary apply
        path (rebuilding store, dedup windows, and the config log), then
        receives new instances through the spliced accept fan-out."""
        entries: List[Entry] = []
        for index in range(self.last_index + 1):
            entry = self.instances.get(index)
            if entry is None:
                break  # hole: ship the contiguous prefix only
            entries.append(entry)
        snapshot = CatchUpSnapshot(
            sender=self.name, entries=tuple(entries),
            # Sent from inside the CONFIG entry's apply: the frontier is
            # what this leader has applied so far.
            commit_index=min(self.last_applied, len(entries) - 1),
            term=self.ballot.round)
        for peer in sorted(joiners):
            self.send(peer, snapshot)

    def _installed(self, src: str, msg: CatchUpSnapshot) -> None:
        self.ballot = Ballot(msg.term, msg.sender)
        self.leader_id = msg.sender
        self.last_index = len(msg.entries) - 1
        # The leader's prefix: chosen values, then its own proposals.
        self._fresh.update(range(len(msg.entries)))
        self._learn_commit_frontier(src, msg.commit_index)

    def _retire(self) -> None:
        super()._retire()
        self.phase1_succeeded = False
        self._heartbeat_timer.cancel()
        self._flush_timer.cancel()

    # -- lifecycle -------------------------------------------------------------------

    def _restart(self) -> None:
        self._adopt_ballot(self.ballot)
        self.chosen = {}
        self.commit_index = -1
        self._promises = {}
        self._accept_buffer = {}
        self._deferred_commands = []
        self._reset_leader_timeout()
