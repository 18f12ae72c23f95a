"""Common replica machinery.

`ReplicaBase` implements everything the protocols share so each protocol
module only contains consensus logic:

* handler dispatch (message type -> bound method);
* client sessions: requests received directly from clients, and requests
  forwarded from a follower to the leader (etcd-style batched forwarding)
  with replies routed back along the same path;
* the apply pipeline into the replicated `KVStore` with exactly-once apply
  and reply completion;
* hooks for tests/metrics (`on_apply_hooks`);
* what the leadered families (Raft, MultiPaxos) carry in common around
  the ack -> commit -> apply loop: the randomized leader timeout, the
  membership lifecycle (splice, retire, joiner -> voter, crash
  save/restore), and the **kernel seam** — five no-op hooks both families
  call at the same points of that loop, which an optimization overrides
  once and binds to either family (DESIGN.md §14).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.kvstore.store import KVStore
from repro.protocols.config import (BEACON_REFRESH_TICKS, FORWARD_BATCH_MAX,
                                    FORWARD_FLUSH_INTERVAL, ClusterConfig)
from repro.protocols.messages import (
    NO_HOLDERS,
    ClientReply,
    ClientRequest,
    ForwardBatch,
    ReplyRelay,
)
from repro.protocols.types import Command, Entry, OpType
from repro.sim.node import Node
from repro.sim.rng import SplitRng

RequestId = Tuple[str, int]


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
        raise NotImplementedError

    # -- host-mux beacon merging ----------------------------------------------

    def beacon_info(self) -> Optional[Tuple[str, int]]:
        """(leader name, term/round) when this replica currently leads a
        beacon-mergeable group; None otherwise.  The host mux polls this
        every beacon interval to build the merged `HostBeacon`."""
        return None

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

    def _fast_apply_eligible(self) -> bool:
        """Whether committed entries nobody waits on may skip `apply_entry`
        and go straight to the store: nobody is observing the applies (no
        hooks — e.g. `ShardOwnership.on_apply`, which can flip the store's
        key filter MID-batch — no obs collector) and no CONFIG entry needs
        `_on_config_applied` to fire at its log position.  For such an
        entry `apply_entry` reduces to `store.apply` plus the
        `last_applied` bump; entries with a pending requester still take
        the full path (callers check `_clients` / `_relays` per entry)."""
        return (not self._membership_active and not self.on_apply_hooks
                and self.obs is None)

    def apply_entry(self, index: int, entry: Entry) -> None:
        """Apply a committed entry to the state machine and complete the
        originating request if it is ours to answer."""
        command = entry.command
        result = self.store.apply(command)
        if index > self.last_applied:
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

    def reset_store(self) -> None:
        """Fresh state machine for recovery replay, keeping the shard key
        filter — and with it the install-order log a shard member keeps
        (`KVStore.set_key_filter`): ownership survives a crash; the applied
        state does not."""
        self.store = KVStore(key_filter=self.store.key_filter)

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
            # final config committed — answering LEASE_LOCAL reads from it
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

    def _save_membership(self, view) -> None:
        """Crash: the family's voter `view` and the membership state
        survive (call with a copy if the view is mutable).  Re-applying
        CONFIG entries during recovery replay is then idempotent: the
        epoch guard in `_on_config_applied` skips completed transitions."""
        if self._membership_active:
            self.stable["membership"] = (
                view, self.config_epoch, self.retired, list(self.peers))

    def _restore_membership(self):
        """Recovery: reinstall what `_save_membership` kept and return the
        saved voter view (None when there was nothing to restore)."""
        membership = self.stable.get("membership")
        if membership is None:
            return None
        view, self.config_epoch, self.retired, peers = membership
        self.peers = list(peers)
        self._membership_active = True
        return view

    # -- lifecycle ---------------------------------------------------------------

    def on_crash(self) -> None:
        self._forward_timer.cancel()
        self._leader_timer.cancel()
        self._clients.clear()
        self._relays.clear()
        self._forward_buffer.clear()
