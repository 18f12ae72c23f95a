"""Common replica machinery.

`ReplicaBase` holds what the protocol families share, so each family
module keeps only what differs between them: phase 1 / elections, log
repair, its ack bookkeeping and `_commit_gate`, and the messages it puts
on the wire.  Shared:

* handler dispatch (message type -> bound method);
* client sessions: direct requests, and requests forwarded from a
  follower to the leader (etcd-style batched forwarding) with replies
  routed back along the same path;
* everything after a value commits, for Raft, MultiPaxos and Mencius
  alike: one apply loop (`_apply_to`) advancing one applied cursor
  (`last_applied`) with exactly-once reply completion and
  `on_apply_hooks`; the durable lifecycle (`on_crash` / `on_recover` over
  what a family names in `_durable`); the catch-up snapshot install
  (`_on_catch_up`); and leader identity (`leader_id`, `beacon_info`);
* around the leadered families' ack -> commit -> apply loop: the
  randomized leader timeout, the membership lifecycle, and the **kernel
  seam** — five hooks both families call at the same points, which an
  optimization overrides once (DESIGN.md §14).
"""

from __future__ import annotations

from copy import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.kvstore.store import KVStore
from repro.protocols.config import (BEACON_REFRESH_TICKS, FORWARD_BATCH_MAX,
                                    FORWARD_FLUSH_INTERVAL, ClusterConfig)
from repro.protocols.messages import (
    NO_HOLDERS,
    CatchUpReply,
    CatchUpSnapshot,
    ClientReply,
    ClientRequest,
    ForwardBatch,
    ReplyRelay,
)
from repro.protocols.types import Command, Entry, OpType
from repro.sim.node import Node, Timer
from repro.sim.rng import SplitRng

RequestId = Tuple[str, int]

#: What survives a crash in every family besides its own `_durable`: the
#: membership state, so re-applying CONFIG entries during recovery replay
#: is idempotent (the epoch guard in `_on_config_applied` skips completed
#: transitions).
_MEMBERSHIP = ("_membership_active", "config_epoch", "retired", "peers")


class ReplicaBase(Node):
    """Base class for consensus replicas."""

    # Host-mux beacon merging: protocols whose empty heartbeat carries no
    # semantic payload beyond "reset your election timer, I lead term T"
    # opt in by setting this True (Raft, MultiPaxos).  Protocols whose
    # keepalive replies carry state the leader needs — lease liveness
    # (Raft*-LL), lease-holder sets (PQL) — and leaderless protocols
    # (Mencius: no leader, skip/commit announcements already piggyback on
    # its coalesced messages) stay False and keep their real keepalives.
    beacon_mergeable = False

    #: The attributes that survive a crash, the log container first (a
    #: list, or an index -> Entry dict where slots resolve out of order).
    #: A crash keeps a copy of each value and recovery hands a copy back:
    #: a new container, never a new entry (no code assigns an entry
    #: field).
    _durable: Tuple[str, ...] = ()

    def __init__(self, name, sim, network, config: ClusterConfig) -> None:
        super().__init__(
            name,
            sim,
            network,
            site=config.site_of(name),
            costs=config.costs,
            host=config.host_of(name),
        )
        self.config = config
        self.peers = config.peers_of(name)
        self.store = KVStore()
        # Every timer this replica arms; a crash cancels them all.
        self._timers: List[Timer] = []
        self.leader_id: Optional[str] = None

        # client sessions
        self._clients: Dict[RequestId, str] = {}
        self._relays: Dict[RequestId, str] = {}
        self._forward_buffer: List[Command] = []
        self._forward_timer = self.timer("forward-flush")

        # host-mux beacon merging (see beacon_refresh_due)
        self._beacon_ticks = 0

        # apply pipeline
        self.last_applied = -1
        self.on_apply_hooks: List[Callable[[str, int, Command], None]] = []

        # Dynamic membership (repro.membership): set once a CONFIG entry
        # enters the log — committed batches then take the per-entry apply
        # path so `_on_config_applied` fires at the right position.  A
        # replica removed by a completed change flips `retired` and fences
        # every client-facing path (stale-voter reads included); `joining`
        # suppresses election machinery on a freshly spawned replica until
        # a committed config makes it a voter.
        self._membership_active = False
        self.config_epoch = 0
        self.retired = False
        self.joining = False

        # Sharded deployments: maps a command to the owning group's id when
        # this replica's group does NOT own its key (None = ours to serve).
        # Misrouted requests are rejected with that redirect hint before
        # they reach the consensus path.
        self.ownership_guard: Optional[Callable[[Command], Optional[int]]] = None
        # Epoch-versioned ownership (live resharding): an object exposing
        # `.epoch` and `.shard_map()` so rejections can tell a stale client
        # how far behind its routing table is — and ship the new map.
        self.shard_info = None

        # Leader-failure detection for the leadered families (leaderless
        # Mencius never arms it): see `_reset_leader_timeout`.
        self._leader_timer = self.timer("leader-timeout")
        root = getattr(network, "rng_root", None)
        self._rng = (root if root is not None else SplitRng(0)).stream(
            f"replica:{name}")

        self._handlers: Dict[type, Callable[[str, Any], None]] = {}
        self.register_handler(ClientRequest, self._on_client_request)
        self.register_handler(ForwardBatch, self._on_forward_batch)
        self.register_handler(ReplyRelay, self._on_reply_relay)

    def timer(self, name: str) -> Timer:
        self._timers.append(Timer(self, name))
        return self._timers[-1]

    # -- dispatch ------------------------------------------------------------

    def register_handler(self, message_type: type, handler: Callable[[str, Any], None]) -> None:
        self._handlers[message_type] = handler

    def on_message(self, src: str, message: Any) -> None:
        handler = self._handlers.get(type(message))
        if handler is None:
            return  # a message type this protocol does not speak
        handler(src, message)

    # -- client sessions -------------------------------------------------------

    def _on_client_request(self, src: str, message: ClientRequest) -> None:
        command = message.command
        if self.retired:
            # Stale-voter fencing: a replica removed by a committed config
            # must not serve clients — not even lease reads, which would
            # otherwise answer from state the surviving voters have moved
            # past.  The plain rejection sends the client back through its
            # routing table (repaired to the replacement by the cluster).
            self.send(src, ClientReply(request_id=command.request_id,
                                       ok=False, server=self.name))
            return
        if self.ownership_guard is not None and command.shard_checked:
            hint = self.ownership_guard(command)
            if hint is not None:
                if self.obs is not None:
                    self.obs_phase(command.trace_id, "reply")
                self.send(src, self._wrong_shard_reply(command, hint,
                                                       message.epoch))
                return
        if self.obs is not None:
            self.obs_phase(command.trace_id, "server_recv")
        self._clients[command.request_id] = src
        self.submit_command(command)

    def _wrong_shard_reply(self, command: Command, hint: int,
                           client_epoch: Optional[int]) -> ClientReply:
        """A redirect rejection; ships the whole partition map when the
        client's routing epoch is behind this replica's."""
        reply = ClientReply(request_id=command.request_id, ok=False,
                            server=self.name, shard_hint=hint)
        if self.shard_info is not None:
            reply.epoch = self.shard_info.epoch
            if client_epoch is not None and client_epoch < self.shard_info.epoch:
                reply.shard_map = self.shard_info.shard_map()
        return reply

    def submit_command(self, command: Command) -> None:
        """Protocol-specific: propose/forward/serve the command."""
        raise NotImplementedError

    def leader_hint(self) -> Optional[str]:
        """Best current guess of the leader's name (None if unknown)."""
        return self.leader_id

    # -- host-mux beacon merging ----------------------------------------------

    def beacon_info(self) -> Optional[Tuple[str, int]]:
        """(leader name, term/round) when this replica currently leads a
        beacon-mergeable group; None otherwise.  The host mux polls this
        every beacon interval to build the merged `HostBeacon`."""
        return ((self.name, self.term)
                if self.beacon_mergeable and self.is_leader else None)

    def on_host_beacon(self, leader: str, term: int) -> None:
        """A merged host beacon carried a beat for this replica's group:
        protocols that suppress empty heartbeats reset their election
        machinery here."""

    def beacon_covered(self, peer: str) -> bool:
        """Whether the host beacon replaces this leader's empty heartbeat
        to `peer` (so the send may be suppressed)."""
        return (self.beacon_mergeable and self.mux is not None
                and self.mux.beacon_covers(self.name, peer))

    def beacon_refresh_due(self) -> bool:
        """Advance the heartbeat tick counter; every
        `BEACON_REFRESH_TICKS`-th tick the leader sends REAL empty
        keepalives even to beacon-covered peers — the beacon replaces the
        timer reset but not the commit-frontier self-healing a dropped
        frontier broadcast needs.  Call once per heartbeat tick."""
        self._beacon_ticks += 1
        return self._beacon_ticks % BEACON_REFRESH_TICKS == 0

    def complete(self, command: Command, ok: bool, value: Optional[str],
                 local_read: bool = False, shard_hint: Optional[int] = None) -> None:
        """Route the result back to whoever is waiting for this command."""
        request_id = command.request_id
        value_size = command.value_size if command.is_read else 8
        if value and (command.op is OpType.MIGRATE_OUT or command.is_txn):
            # Range snapshots and transaction votes/reads/reports ride back
            # in the reply: charge their real size to the network/CPU models.
            value_size = len(value)
        reply = ClientReply(
            request_id=request_id,
            ok=ok,
            value=value,
            server=self.name,
            value_size=value_size,
            local_read=local_read,
            shard_hint=shard_hint,
        )
        if shard_hint is not None and self.shard_info is not None:
            # Apply-time bounce (the key migrated away while the command
            # was in the log): always ship the map — the requester's epoch
            # is no longer known at this point, and only stale or boundary
            # clients ever see this path.
            reply.epoch = self.shard_info.epoch
            reply.shard_map = self.shard_info.shard_map()
        client = self._clients.pop(request_id, None)
        relay = None if client is not None else self._relays.pop(request_id, None)
        if self.obs is not None and (client is not None or relay is not None):
            self.obs_phase(command.trace_id, "reply")
        if client is not None:
            self.send(client, reply)
            return
        if relay is not None:
            self.send(relay, ReplyRelay(replies=[reply]))

    # -- forwarding (etcd-style batching) ----------------------------------------

    def forward_to_leader(self, command: Command) -> None:
        """Queue a command for batched forwarding to the current leader."""
        leader = self.leader_hint()
        if leader is None or leader == self.name:
            # No leader known: drop; closed-loop clients retry via timeout.
            self.complete(command, ok=False, value=None)
            return
        if self.obs is not None:
            self.obs_phase(command.trace_id, "forward")
        self._forward_buffer.append(command)
        if len(self._forward_buffer) >= FORWARD_BATCH_MAX:
            self._flush_forwards()
        elif not self._forward_timer.armed:
            self._forward_timer.arm(FORWARD_FLUSH_INTERVAL, self._flush_forwards)

    def _flush_forwards(self) -> None:
        self._forward_timer.cancel()
        if not self._forward_buffer:
            return
        leader = self.leader_hint()
        batch = self._forward_buffer
        self._forward_buffer = []
        if leader is None or leader == self.name:
            for command in batch:
                self.complete(command, ok=False, value=None)
            return
        self.send(leader, ForwardBatch(origin=self.name, commands=batch))

    def _on_forward_batch(self, src: str, message: ForwardBatch) -> None:
        for command in message.commands:
            if self.obs is not None:
                self.obs_phase(command.trace_id, "leader_recv")
            self._relays[command.request_id] = message.origin
            self.submit_command(command)

    def _on_reply_relay(self, src: str, message: ReplyRelay) -> None:
        for reply in message.replies:
            client = self._clients.pop(reply.request_id, None)
            if client is not None:
                self.send(client, reply)

    # -- apply pipeline --------------------------------------------------------

    def _apply_to(self, frontier: int, log) -> None:
        """Apply `log[last_applied + 1 .. frontier]`, all committed, in
        order: the one apply loop of every family."""
        # Fast path: while nothing observes the applies (no hooks — e.g.
        # `ShardOwnership.on_apply`, which can flip the store's key filter
        # mid-run — no obs collector, and no CONFIG entry that needs
        # `_on_config_applied` at its position), an entry nobody waits on
        # reduces to `store.apply` plus the cursor bump.  An entry with a
        # pending requester still takes `apply_entry`: its completion is
        # observable message flow.
        fast = (not self._membership_active and not self.on_apply_hooks
                and self.obs is None)
        clients = self._clients
        relays = self._relays
        store_apply = self.store.apply
        while self.last_applied < frontier:
            index = self.last_applied + 1
            entry = log[index]
            if fast:
                command = entry.command
                rid = (command.client_id, command.seq)
                if rid not in clients and rid not in relays:
                    store_apply(command)
                    self.last_applied = index
                    continue
            self.apply_entry(index, entry)

    def apply_entry(self, index: int, entry: Entry) -> None:
        """Apply a committed entry to the state machine and complete the
        originating request if it is ours to answer."""
        command = entry.command
        result = self.store.apply(command)
        self.last_applied = index
        if command.op is OpType.CONFIG:
            # Membership changes act at APPLY time so every replica of the
            # group switches voter views at the same log position; the
            # store already recorded the dedup slot (retries answer from
            # cache instead of proposing a second epoch).
            self._on_config_applied(index, command)
        if not result.conflict:
            # Lock-conflict refusals mutate nothing and will be retried as
            # a NEW log entry, so apply observers must not see them — in
            # particular a refused MIGRATE_OUT (prepared locks in range)
            # must not advance `ShardOwnership`, or the donor would turn
            # away a range it still holds.  Deterministic: the lock table
            # is replicated state, so every replica skips the same entry.
            for hook in self.on_apply_hooks:
                hook(self.name, index, command)
        if command.is_nop:
            return
        rid = command.request_id
        if rid in self._clients or rid in self._relays:
            if self.obs is not None:
                self.obs_phase(command.trace_id, "commit")
            hint = None
            if result.wrong_shard and self.ownership_guard is not None:
                # The key migrated away between this command entering the
                # log and applying: answer with a redirect so the client
                # re-routes instead of treating it as a dead end.
                hint = self.ownership_guard(command)
            self.complete(command, ok=result.ok, value=result.value,
                          shard_hint=hint)

    def _on_config_applied(self, index: int, command: Command) -> None:
        """A CONFIG entry reached the apply point.  Protocols that support
        dynamic membership override this to switch voter views; the base
        implementation ignores it (a config entry replicated into a
        protocol without membership support is a harmless no-op)."""

    def serve_local_read(self, command: Command) -> None:
        """Answer a read from local state (lease-protected paths only)."""
        if self.retired:
            # Stale-voter fencing for the lease-read path: a removed
            # replica may still hold an unexpired lease from before the
            # final config committed — answering lease reads from it
            # would serve state the new voter set no longer guards.
            self.complete(command, ok=False, value=None)
            return
        if self.ownership_guard is not None:
            hint = self.ownership_guard(command)
            if hint is not None:
                # The key migrated away while the read was pending (it
                # passed the guard at arrival): a local read would now see
                # the exported — empty — slot.  Redirect instead.
                self.complete(command, ok=False, value=None, shard_hint=hint)
                return
        value = self.store.read_local(command.key)
        self.complete(command, ok=True, value=value, local_read=True)

    # -- the kernel seam (DESIGN.md §14) ------------------------------------------
    #
    # Five points of the ack -> commit -> apply loop that RaftReplica and
    # MultiPaxosReplica both pass through, under the same names.  Four are
    # defined here as no-ops.  The fifth, `_commit_gate`, is defined by
    # each family because what it judges differs: Raft commits a prefix
    # (`_commit_gate(candidate) -> highest index that may commit`),
    # MultiPaxos chooses one instance (`_commit_gate(index) -> bool`).

    def _entry_entered(self, index: int, command: Command) -> None:
        """An entry entered the local log at `index`: appended or adopted
        by a leader, accepted from one, installed by a catch-up snapshot,
        or reloaded from stable storage on recovery."""
        if command.op is OpType.CONFIG:
            self._membership_active = True

    def _ack_payload(self) -> frozenset:
        """What this replica attaches to its appendOK / acceptOK."""
        return NO_HOLDERS

    def _ack_received(self, peer: str, message: Any) -> None:
        """The leader received `peer`'s positive ack for its current
        term/ballot; called before the ack is counted."""

    def _frontier_advanced(self) -> None:
        """The commit frontier was updated and everything below it applied
        (MultiPaxos also calls this when an update moved nothing)."""

    # -- leader timeout ------------------------------------------------------------

    def _boot(self) -> None:
        """A leadered family's last construction step: follow the agreed
        initial leader from term/round 1 (`_seed_initial_leader`), so
        benchmarks measure steady state, else start the leader timeout."""
        leader = self.config.initial_leader
        if leader is not None:
            self.leader_id = leader
            self._seed_initial_leader(leader)
        if leader != self.name:
            self._reset_leader_timeout()

    def _reset_leader_timeout(self) -> None:
        """(Re)arm the randomized leader-failure timeout."""
        if self.joining or self.retired:
            # A freshly spliced-in replica must not disrupt the group with
            # a term/ballot bump before a committed config makes it a
            # voter; a retired replica must never campaign again.
            self._leader_timer.cancel()
            return
        timeout = self._rng.randint(
            self.config.election_timeout_min, self.config.election_timeout_max
        )
        self._leader_timer.arm(timeout, self._on_leader_timeout)

    def _on_leader_timeout(self) -> None:
        """Family-specific: start an election / phase 1."""
        raise NotImplementedError

    # -- dynamic membership: what both reconfiguration styles share ---------------

    def _splice_peers(self, members) -> None:
        """Point the replication fan-out at the active member set (sorted
        for deterministic send order)."""
        self.peers = sorted(m for m in members if m != self.name)

    def _adopt_members(self, members) -> None:
        """A completed config made `members` the group: splice the
        fan-out, retire if this replica was removed, and let a joiner that
        is now a committed voter into the election machinery."""
        self._splice_peers(members)
        if self.name not in members:
            self._retire()
        elif self.joining:
            self.joining = False
            if not self.is_leader:
                self._reset_leader_timeout()

    def _retire(self) -> None:
        """This replica was removed by a completed config: fence every
        client-facing path and stand down permanently (families extend
        this with their own way of ceasing to lead)."""
        self.retired = True
        self.joining = False
        self._leader_timer.cancel()

    # -- lifecycle ---------------------------------------------------------------

    def on_crash(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._clients.clear()
        self._relays.clear()
        self._forward_buffer.clear()
        for name in self._durable + _MEMBERSHIP:
            self.stable[name] = copy(getattr(self, name))

    def on_recover(self) -> None:
        for name in self._durable + _MEMBERSHIP:
            setattr(self, name, copy(self.stable[name]))
        self.leader_id = None
        self.last_applied = -1
        # A fresh state machine for the replay keeps the shard key filter,
        # and with it the install record a shard member keeps
        # (`KVStore.set_key_filter`): ownership survives a crash, the
        # applied state does not.
        self.store = KVStore(key_filter=self.store.key_filter)
        self._reenter()
        self._restart()

    def _restart(self) -> None:
        """Recovery's last step: reset volatile state, re-arm timers."""

    def _reenter(self) -> None:
        """Pass every entry of the log through `_entry_entered`."""
        log = getattr(self, self._durable[0])
        for index, entry in (enumerate(log) if isinstance(log, list)
                             else log.items()):
            self._entry_entered(index, entry.command)

    # -- catch-up snapshot install -------------------------------------------

    def _on_catch_up(self, src: str, msg: CatchUpSnapshot) -> None:
        """Only an EMPTY log installs a leader's snapshot (the fresh
        joiner); a lagging rejoiner keeps its log for ordinary repair."""
        log = getattr(self, self._durable[0])
        if not log:
            if isinstance(log, list):
                log.extend(msg.entries)
            else:
                log.update(enumerate(msg.entries))
            self._reenter()
            self._installed(src, msg)
        self.send(src, CatchUpReply(self.name, self.last_index, msg.term))

    def _installed(self, src: str, msg: CatchUpSnapshot) -> None:
        """The snapshot is in the log: follow its sender, learn its frontier."""
        raise NotImplementedError
