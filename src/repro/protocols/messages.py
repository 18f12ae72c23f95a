"""Wire messages for every protocol.

All messages implement `size_bytes()` so the network's bandwidth model and
the nodes' CPU model see realistic payload sizes (4 KB entries really cost
4 KB of serialization).

Hot-path representation: every message class is a `slots=True` dataclass
(no per-instance `__dict__`), entry batches are tuples built once by the
sender, and non-constant `size_bytes()` results are memoized per instance
in the `_size` slot of `SizedMessage`.  The three charging sites — node
CPU cost, the network's size estimate, and the mux envelope — all read
that one cached number, so a message's size is computed exactly once no
matter how many layers handle it.  The memo is safe because messages are
frozen-in-practice: senders finish populating fields before the first
send, and nothing mutates a message once it is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Tuple)

from repro.protocols.types import (Ballot, Command, Entry, OpType, Payload,
                                   payload_of)
# The envelope charges through the cost model's own canonical fallbacks
# (64 B / 0 commands for messages implementing neither hook), so a batch
# costs exactly the command/byte work its parts would — what batching
# amortizes is the per-message CPU cost, paid once per envelope.
from repro.sim.node import payload_command_count, payload_size_bytes

HEADER_BYTES = 48

#: The ack payload of a replica that grants no leases (every protocol but
#: the PQL bindings): one shared empty set, never a per-message allocation.
NO_HOLDERS: FrozenSet[str] = frozenset()


def _entries_size(entries: Iterable[Entry]) -> int:
    return sum(entry.wire_size() for entry in entries)


def _memo() -> Any:
    """A per-instance size cache slot (-1 = not computed yet)."""
    return field(default=-1, init=False, repr=False, compare=False)


@dataclass(slots=True)
class SizedMessage:
    """A message whose wire size depends on its payload: `HEADER_BYTES`
    plus the subclass's `_payload_bytes()`, computed on first use and
    memoized in the `_size` slot."""

    _size: int = _memo()

    def size_bytes(self) -> int:
        size = self._size
        if size < 0:
            size = self._size = HEADER_BYTES + self._payload_bytes()
        return size

    def _payload_bytes(self) -> int:
        raise NotImplementedError


def _cost_memo() -> Any:
    """The `_cpu` slot: `(NodeCosts, cost)`, written by `NodeCosts.cost`,
    read by `Node._receive`.  For classes whose INSTANCES reach more than
    one receiver (a broadcast fans one object out), not for messages built
    per send."""
    return field(default=None, init=False, repr=False, compare=False)


# --------------------------------------------------------------------------
# Client <-> replica
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ShardMap:
    """The partition map at `epoch`, as shipped to stale clients.

    Enough to rebuild a routing table without a separate config service:
    ownership is equal hash-ranges over `num_shards` groups, and each
    group's replicas are named by convention (``g<shard>_r_<site>``), so
    epoch + shard count fully determine key -> server routing.
    """

    epoch: int
    num_shards: int

    def size_bytes(self) -> int:
        return 16


@dataclass(slots=True)
class ClientRequest(SizedMessage):
    command: Command
    # The epoch of the partition map the client routed with (None for
    # unsharded deployments).  A server on a newer epoch ships its map back
    # with the rejection instead of just a shard id.
    epoch: Optional[int] = None

    def _payload_bytes(self) -> int:
        return self.command.wire_size()

    def command_count(self) -> float:
        # Client-facing handling is the expensive path (connection, parse,
        # session bookkeeping) -- ~3 units, mirroring etcd's cost profile.
        return 3.0


@dataclass(slots=True)
class ClientReply(SizedMessage):
    request_id: Tuple[str, int]
    ok: bool
    value: Optional[str] = None
    server: str = ""
    value_size: int = 8
    local_read: bool = False
    # Sharded deployments: set on a rejection when the key belongs to a
    # different group, so the client can re-route instead of blind-retrying.
    shard_hint: Optional[int] = None
    # The answering server's partition-map epoch, and — when the requester's
    # epoch is behind it — the full map, so one redirect repairs the whole
    # routing table rather than one key.
    epoch: Optional[int] = None
    shard_map: Optional[ShardMap] = None

    def _payload_bytes(self) -> int:
        extra = (self.shard_map.size_bytes()
                 if self.shard_map is not None else 0)
        return self.value_size + extra


@dataclass(slots=True)
class TxnRequest(SizedMessage):
    """Client -> transaction coordinator: run `ops` atomically.

    `ops` is a list of ``(op, key, value)`` triples ("put"/"get", value
    None for reads).  `ts` is the transaction's wait-die priority — fixed
    at the *first* attempt and reused on every retry so a transaction's
    priority ages rather than resets (the property wound-wait/wait-die
    liveness rests on).  Retries reuse `txn_seq`: a retry of an answered
    transaction starts a fresh attempt, which the home shard's commit
    record answers with the first attempt's outcome and reads."""

    client: str
    txn_seq: int
    ts: int
    ops: List[Tuple[str, str, Optional[str]]]
    epoch: Optional[int] = None

    def _payload_bytes(self) -> int:
        return sum(24 + len(k) + (len(v) if v else 0) for _, k, v in self.ops)

    def command_count(self) -> float:
        # Same client-facing cost profile as a ClientRequest.
        return 3.0


@dataclass(slots=True)
class TxnReply(SizedMessage):
    """Coordinator -> client: the transaction's outcome.

    `committed` False with `ok` True means a clean abort the client may
    retry under a fresh transaction id; `reads` carries the values observed
    at the 2PC serialization point (all locks held)."""

    client: str
    txn_seq: int
    ok: bool
    committed: bool = False
    reads: Dict[str, Optional[str]] = field(default_factory=dict)
    server: str = ""

    def _payload_bytes(self) -> int:
        return sum(8 + (len(v) if v else 0) for v in self.reads.values())


@dataclass(slots=True)
class ForwardBatch(SizedMessage):
    """A follower forwarding a batch of client commands to the leader
    (the etcd behaviour the paper keeps enabled: 'when a follower receives
    multiple requests from clients, it forwards them to the leader in a
    batch')."""

    origin: str
    commands: List[Command]

    def _payload_bytes(self) -> int:
        return sum(command.wire_size() for command in self.commands)

    def command_count(self) -> int:
        return len(self.commands)


@dataclass(slots=True)
class ReplyRelay(SizedMessage):
    """Leader -> origin follower: results for forwarded commands."""

    replies: List[ClientReply]

    def _payload_bytes(self) -> int:
        return sum(reply.size_bytes() for reply in self.replies)


# --------------------------------------------------------------------------
# Raft / Raft*
# --------------------------------------------------------------------------


@dataclass(slots=True)
class RequestVote:
    term: int
    candidate: str
    last_log_index: int
    last_log_term: int

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(slots=True)
class RequestVoteReply(SizedMessage):
    term: int
    voter: str
    granted: bool
    # Raft* only: entries the voter has beyond the candidate's log
    # (Figure 2a lines 14-16).  Plain Raft leaves this empty.
    extra_entries: Dict[int, Entry] = field(default_factory=dict)

    def _payload_bytes(self) -> int:
        return _entries_size(self.extra_entries.values())


@dataclass(slots=True)
class AppendEntries(SizedMessage):
    term: int
    leader: str
    prev_index: int
    prev_term: int
    # Built once by the sender as a tuple; never mutated in flight.
    entries: Tuple[Entry, ...]
    leader_commit: int

    def _payload_bytes(self) -> int:
        return _entries_size(self.entries)

    def command_count(self) -> float:
        # Replicated entry processing is cheap relative to client handling.
        return 0.25 * len(self.entries)

    @property
    def last_index(self) -> int:
        return self.prev_index + len(self.entries)


@dataclass(slots=True)
class AppendEntriesReply:
    term: int
    follower: str
    success: bool
    match_index: int
    # PQL: lease holders currently granted by this follower
    # (the 'leases granted by s' of Figure 7 line 16 / Figure 8 line 9).
    lease_holders: FrozenSet[str] = frozenset()

    def size_bytes(self) -> int:
        return HEADER_BYTES


# --------------------------------------------------------------------------
# MultiPaxos
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Prepare:
    """Phase1a: <'prepare', ballot, unchosen>."""

    ballot: Ballot
    proposer: str
    unchosen: int

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(slots=True)
class Promise(SizedMessage):
    """Phase1b reply: <'prepareOK', ballot, instances with id >= unchosen>."""

    ballot: Ballot
    acceptor: str
    instances: Dict[int, Entry]
    log_tail: int

    def _payload_bytes(self) -> int:
        return _entries_size(self.instances.values())


@dataclass(slots=True)
class Accept(SizedMessage):
    """Phase2a: <'accept', instance, value, ballot>; batched over instances."""

    ballot: Ballot
    proposer: str
    instances: Dict[int, Command]
    commit_index: int
    _cpu: Optional[tuple] = _cost_memo()

    def _payload_bytes(self) -> int:
        return sum(command.wire_size()
                   for command in self.instances.values())

    def command_count(self) -> float:
        return 0.25 * len(self.instances)


@dataclass(slots=True)
class Accepted:
    """Phase2b reply: <'acceptOK', instance, value, ballot>."""

    ballot: Ballot
    acceptor: str
    instance_ids: List[int]
    # PQL on Paxos: lease holders granted by this acceptor.
    lease_holders: FrozenSet[str] = frozenset()

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(slots=True)
class Learn:
    """The proposer's commit frontier at `ballot`.  From an acceptor to the
    leader, a pull of the chosen values past its `commit_index`."""

    ballot: Ballot
    proposer: str
    commit_index: int
    _cpu: Optional[tuple] = _cost_memo()

    def size_bytes(self) -> int:
        return HEADER_BYTES


# --------------------------------------------------------------------------
# Leases (PQL and Leader Lease)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class LeaseGrant:
    """`grantor` grants `holder` a read lease until `expiry` (sim time)."""

    grantor: str
    holder: str
    expiry: int

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(slots=True)
class LeaseAck:
    """`holder` acknowledges a grant; a grantor treats holders that stop
    acking as inactive once their grant expires (so writes stop waiting on
    crashed lease holders after at most the lease duration)."""

    holder: str
    grantor: str
    expiry: int

    def size_bytes(self) -> int:
        return HEADER_BYTES


# --------------------------------------------------------------------------
# Dynamic membership (repro.membership)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigChange:
    """The decoded payload of an `OpType.CONFIG` command.

    Not a wire message itself: a config change travels as an ordinary
    client command through the group's committed log (so every replica
    switches voter views at the same log position) with this record as
    its JSON value.  `kind` selects the reconfiguration style:

    * ``"joint"`` — Raft-side phase 1: activate the Cold ∧ Cnew joint
      view (`old` and `new` both populated).  The leader auto-appends the
      matching ``"final"`` once the joint entry applies.
    * ``"final"`` — Raft-side phase 2: retire Cold, voters become `new`.
    * ``"alpha"`` — Paxos-side single-decree change: `new` becomes the
      voter set `alpha` slots after this command's instance.

    `epoch` rises by one per change; a replica applying a stale epoch
    treats the entry as a no-op (replay/duplicate safety)."""

    kind: str
    epoch: int
    new: Tuple[str, ...]
    old: Tuple[str, ...] = ()
    alpha: int = 0

    def encode(self, client_id: str, seq: int) -> Command:
        """The CONFIG command carrying this change."""
        value = Payload({
            "kind": self.kind, "epoch": self.epoch,
            "new": sorted(self.new), "old": sorted(self.old),
            "alpha": self.alpha,
        })
        return Command(op=OpType.CONFIG, key="__config__", value=value,
                       client_id=client_id, seq=seq, value_size=len(value))

    @staticmethod
    def decode(command: Command) -> "ConfigChange":
        record = payload_of(command)
        return ConfigChange(
            kind=record.get("kind", ""), epoch=record.get("epoch", 0),
            new=tuple(record.get("new", ())),
            old=tuple(record.get("old", ())),
            alpha=record.get("alpha", 0))


@dataclass(slots=True)
class CatchUpSnapshot(SizedMessage):
    """Leader/proposer -> a joining replica: the full replicated state.

    Raft side: the whole log plus the commit index — the joiner replays
    it through its own apply path, rebuilding the store, the dedup
    windows, and the config history exactly (the repo never compacts, so
    the log IS the canonical state; `KVStore.export_full` is the
    compaction-ready alternative the property tests also pin).  Paxos
    side: the contiguous instance prefix and the frontier applied below
    it, same replay.  The joiner's voter view comes from replaying the
    CONFIG entries among them."""

    sender: str
    entries: Tuple[Entry, ...]
    commit_index: int
    term: int = 0

    def _payload_bytes(self) -> int:
        return _entries_size(self.entries)

    def command_count(self) -> float:
        # State transfer is bulk work, same per-entry profile as an
        # append batch.
        return 0.25 * len(self.entries)


@dataclass(slots=True)
class CatchUpReply:
    """Joining replica -> sender: snapshot installed through `last_index`.
    The sender seeds its replication cursor (match/next index) from this
    instead of probing backwards entry by entry."""

    follower: str
    last_index: int
    term: int = 0

    def size_bytes(self) -> int:
        return HEADER_BYTES


# --------------------------------------------------------------------------
# Mencius
# --------------------------------------------------------------------------


@dataclass(slots=True)
class SkipNotice:
    """`owner` announces all its unused owned indexes below `below` are
    no-op.  Per coordinated Paxos, a default leader proposing no-op lets
    everyone learn the no-op without waiting for phase 2.  `since` is the
    frontier `owner`'s previous broadcast carried: a receiver that has not
    recorded it missed a broadcast and infers no skip from this one."""

    owner: str
    below: int
    since: int
    _cpu: Optional[tuple] = _cost_memo()

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(slots=True)
class MenciusAppend(SizedMessage):
    """A (default or recovery) leader proposes values for specific global
    indexes.  `ballot` 0 marks the default leader's coordinated instances;
    recovery proposals carry a higher ballot.  `next_own` and `since` are
    the sender's skip frontier now and at its previous broadcast (see
    `SkipNotice`).  `committed` piggybacks its fresh commits as (index,
    ballot) pairs, charged 4 bytes each: a receiver commits an index only
    when it holds the entry at that ballot."""

    sender: str
    owner: str
    ballot: int
    items: Dict[int, Entry]
    next_own: int
    since: int
    committed: List[Tuple[int, int]] = field(default_factory=list)
    _cpu: Optional[tuple] = _cost_memo()

    def _payload_bytes(self) -> int:
        return _entries_size(self.items.values()) + 4 * len(self.committed)

    def command_count(self) -> float:
        return 0.25 * len(self.items)


@dataclass(slots=True)
class MenciusAck:
    """Acceptance of `MenciusAppend` items at `ballot`; piggybacks the
    acker's skip frontier `next_own` and the frontier `since` its last
    broadcast carried (see `SkipNotice`)."""

    acker: str
    ballot: int
    indexes: List[int]
    next_own: int
    since: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + 4 * len(self.indexes)


@dataclass(slots=True)
class MenciusCatchup:
    """A stalled replica asks a peer for the slots it has resolved from
    `start` on (`MenciusReplica._on_catchup`)."""

    start: int

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(slots=True)
class MenciusState(SizedMessage):
    """Catch-up reply: resolved entries (status committed/skipped only)."""

    items: Dict[int, Tuple[Entry, str]]

    def _payload_bytes(self) -> int:
        return _entries_size(e for e, _ in self.items.values())

    def command_count(self) -> float:
        return 0.25 * len(self.items)


@dataclass(slots=True)
class MenciusPrepare:
    """Recovery phase-1 for a suspected-crashed owner's index range."""

    ballot: int
    owner: str
    start: int
    end: int

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(slots=True)
class MenciusPromise(SizedMessage):
    """Recovery phase-1 reply: accepted entries for the probed range."""

    ballot: int
    acceptor: str
    owner: str
    accepted: Dict[int, Entry] = field(default_factory=dict)

    def _payload_bytes(self) -> int:
        return _entries_size(self.accepted.values())


# --------------------------------------------------------------------------
# Host-multiplexed transport (repro.protocols.mux)
# --------------------------------------------------------------------------


class MuxedMessage(NamedTuple):
    """One protocol message in flight through a host mux: the real replica
    endpoints plus the group tag the receiving mux demultiplexes on.

    A NamedTuple, not a dataclass: the mux allocates one per intercepted
    send, and a tuple is the cheapest object with named fields."""

    src: str
    dst: str
    group: int
    payload: Any


@dataclass(slots=True)
class HostBeacon:
    """The merged keepalive of every colocated leader on one host.

    `beats` maps group id -> (leader name, term/ballot round).  One beacon
    per destination host per heartbeat interval replaces one empty
    heartbeat per (leader, follower) pair; the receiving mux fans it out to
    the per-group follower timers (`ReplicaBase.on_host_beacon`)."""

    src_host: str
    beats: Dict[int, Tuple[str, int]] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return HEADER_BYTES + 12 * len(self.beats)


@dataclass(slots=True)
class HostEnvelope(SizedMessage):
    """Everything one host sends another in one coalescing flush tick.

    The cost is the sum of the inner payloads plus ONE envelope header:
    the destination host pays `NodeCosts.per_message` once per envelope
    instead of once per inner message, which is the multi-raft CPU
    amortization the `coalesce` figure measures.  Wire bytes are NOT
    amortized: each inner message keeps its own framing (`size_bytes()`
    as it would cost unmuxed — length/type/group tags don't vanish when
    batched), and the envelope adds its one header on top.  Inner
    messages without their own `size_bytes` / `command_count` contribute
    the cost model's fallbacks (64 B, 0 commands) rather than silently
    vanishing from the bill.
    """

    src_host: str
    dst_host: str
    items: Tuple[MuxedMessage, ...] = ()
    beacon: Optional[HostBeacon] = None

    def _payload_bytes(self) -> int:
        inner = sum(payload_size_bytes(m.payload) for m in self.items)
        if self.beacon is not None:
            inner += self.beacon.size_bytes()
        return inner

    def command_count(self) -> float:
        return sum(payload_command_count(m.payload) for m in self.items)

    def message_count(self) -> int:
        """Protocol messages this envelope replaces (beacon included)."""
        return len(self.items) + (1 if self.beacon is not None else 0)
