"""Core value types shared by all protocols."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple


class OpType(enum.Enum):
    """Operations of the replicated key-value state machine."""

    PUT = "put"
    GET = "get"
    NOP = "nop"  # no-op / skip entries (leader no-ops, Mencius skips)
    # Live resharding: a donor group exports a hash range (and the dedup
    # state of clients whose last command touched it), a recipient group
    # imports it.  Both go through the committed log so every replica of a
    # group flips ownership at the same log position.
    MIGRATE_OUT = "migrate_out"
    MIGRATE_IN = "migrate_in"
    # Cross-shard transactions (repro.shard.txn).  A single-shard
    # transaction is one atomic multi-op command (`TXN`); cross-shard
    # transactions are two-phase commit where every protocol step is an
    # ordinary command through a participant group's committed log, so a
    # participant survives its leader crashing mid-transaction:
    #   TXN_PREPARE  lock keys + stage writes + vote (participant log);
    #   TXN_COMMIT   install staged writes, release locks;
    #   TXN_ABORT    drop staged writes, release locks (in the
    #                transaction's *home* shard, either one may carry
    #                the decision record, bound there first — the first
    #                decision recorded wins);
    #   TXN_RECOVER  a restarted coordinator's fenced query for its
    #                prepared transactions and logged decisions.
    TXN = "txn"
    TXN_PREPARE = "txn_prepare"
    TXN_COMMIT = "txn_commit"
    TXN_ABORT = "txn_abort"
    TXN_RECOVER = "txn_recover"
    # Dynamic membership (repro.membership): a logged voter-set change.
    # The command's value carries the `ConfigChange` JSON payload (kind,
    # epoch, voter sets); the store treats it as a no-op — the *protocol*
    # reacts when the entry applies (`ReplicaBase._on_config_applied`),
    # so every replica of a group switches voter views at the same log
    # position.
    CONFIG = "config"


class Consistency(enum.Enum):
    """Per-operation consistency level of the session API.

    DEFAULT       — the serving protocol chooses: lease protocols (PQL,
                    LL) answer reads from local state under a valid lease,
                    everything else goes through the committed log.  This
                    is exactly the pre-session behaviour.
    LINEARIZABLE  — force the operation through the committed log even on
                    a protocol that could serve it from a lease.
    """

    DEFAULT = "default"
    LINEARIZABLE = "linearizable"


@dataclass(frozen=True, slots=True)
class Command:
    """A client command to the replicated state machine.

    `value_size` is the *simulated* payload size in bytes: the evaluation
    replays 8 B and 4 KB request sizes without materializing 4 KB strings.
    """

    op: OpType
    key: str = ""
    value: Optional[str] = None
    client_id: str = ""
    seq: int = 0
    value_size: int = 8
    # Pipelined sessions: every sequence number <= acked_low_water has been
    # acknowledged to the client, so the store may evict those slots from
    # its at-most-once dedup window.  Rides inside the command (not the
    # transport envelope) because eviction must be deterministic across a
    # group's replicas — it happens at apply time, from the log.  -1 means
    # "no information" (legacy single-slot clients, one-shot system
    # commands): nothing is ever evicted on its account.
    acked_low_water: int = -1
    # Per-operation consistency level (reads only; see `Consistency`).
    consistency: Consistency = Consistency.DEFAULT
    # Observability: the request-lifecycle span this command belongs to
    # (repro.obs).  None means "my own request id" — only commands issued
    # on *behalf* of another request carry an explicit trace (2PC child
    # commands are stamped with the parent transaction's trace so all of
    # a transaction's prepares/commits join one span).
    trace: Optional[str] = None

    @property
    def request_id(self) -> Tuple[str, int]:
        return (self.client_id, self.seq)

    @property
    def trace_id(self) -> Optional[str]:
        """Span identity for `repro.obs`: the stamped parent trace if any,
        else this command's own (client_id, seq) identity."""
        if self.trace is not None:
            return self.trace
        if not self.client_id:
            return None
        return f"{self.client_id}:{self.seq}"

    @property
    def allows_local_read(self) -> bool:
        """Whether a lease protocol may answer this read from local state
        (LINEARIZABLE is the explicit opt-out that forces the log)."""
        return self.consistency is not Consistency.LINEARIZABLE

    def wire_size(self) -> int:
        """Approximate bytes on the wire."""
        base = 24 + len(self.key)
        if self.op in _VALUE_CARRYING_OPS:
            # MIGRATE_IN carries the exported range snapshot as its value,
            # TXN/TXN_PREPARE the transaction's operation list, a 2PC
            # phase-2 step its handle (the home step the whole decision
            # record); `value_size` is set to the blob's real size at
            # construction so replicating the payload costs realistic
            # bytes.
            return base + self.value_size
        return base

    @property
    def is_read(self) -> bool:
        return self.op is OpType.GET

    @property
    def is_write(self) -> bool:
        return self.op is OpType.PUT

    @property
    def is_nop(self) -> bool:
        return self.op is OpType.NOP

    @property
    def is_data(self) -> bool:
        """A client data operation, subject to shard ownership routing
        (migration and no-op commands bypass the ownership guard)."""
        return self.op in _DATA_OPS

    @property
    def is_txn(self) -> bool:
        """Any transaction-layer command (repro.shard.txn)."""
        return self.op in _TXN_OPS

    @property
    def shard_checked(self) -> bool:
        """Commands whose keys must be owned by the serving group: client
        data operations plus single-shard transactions.  2PC commands are
        coordinator-routed and ownership-checked inside the store at
        prepare time instead."""
        return self.op in _SHARD_CHECKED_OPS


# Hot-path op sets, built once (an inline tuple literal of enum members is
# rebuilt on every membership test).
_VALUE_CARRYING_OPS = frozenset(
    {OpType.PUT, OpType.MIGRATE_IN, OpType.TXN, OpType.TXN_PREPARE,
     OpType.TXN_COMMIT, OpType.TXN_ABORT, OpType.CONFIG})
_DATA_OPS = frozenset({OpType.PUT, OpType.GET})
_TXN_OPS = frozenset(
    {OpType.TXN, OpType.TXN_PREPARE, OpType.TXN_COMMIT, OpType.TXN_ABORT,
     OpType.TXN_RECOVER})
_SHARD_CHECKED_OPS = frozenset({OpType.PUT, OpType.GET, OpType.TXN})


NOP = Command(op=OpType.NOP, client_id="__nop__", seq=0, value_size=0)


def _shared(*args, **kwargs):
    raise TypeError("a command payload is shared by every replica that "
                    "applies it and is never mutated")


class _FrozenDict(dict):
    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _shared
    clear = pop = popitem = setdefault = update = _shared


_SCALARS = frozenset({str, int, float, bool, type(None)})
# The canonical text of a payload.  One encoder for all of them:
# `json.dumps(..., sort_keys=True)` builds a new one on every call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _freeze(node):
    # A read-only private copy of a JSON structure (objects as dicts whose
    # mutators raise, arrays as tuples) that encodes to the same text.
    # Leaves are tested inline: a call per scalar doubles the cost.
    if isinstance(node, dict):
        if not set(map(type, node)) <= {str}:
            # JSON would stringify the key: text and structure would differ.
            raise TypeError(f"payload object keys must be strings: {node!r}")
        return _FrozenDict({
            key: value if type(value) in _SCALARS else _freeze(value)
            for key, value in node.items()})
    if isinstance(node, (list, tuple)):
        return tuple([item if type(item) in _SCALARS else _freeze(item)
                      for item in node])
    return node  # a scalar subclass: the encoder has already vetted it


class Payload(str):
    """The value of a JSON-valued command: the canonical (sorted-keys) text
    — all that `len`, `==`, hashing, wire sizes and digests see — carrying
    in `data` the structure its sender encoded, frozen, which the replicas
    applying the command share instead of each parsing the text; `memo` is
    written only by `kvstore.store._reply`.  DESIGN.md §6, §12 rule 7."""

    __slots__ = ("data", "memo")

    def __new__(cls, data: Mapping[str, Any]) -> "Payload":
        self = str.__new__(cls, _encode(data))
        cls.data.__set__(self, _freeze(data))
        return self

    __setattr__ = __delattr__ = _shared


def payload_of(carrier) -> Mapping[str, Any]:
    """The decoded JSON `value` of a command or of the reply to one, decoded
    nowhere else: a `Payload`'s shared structure, or a plain string parsed."""
    value = carrier.value
    return value.data if type(value) is Payload else json.loads(value or "{}")


@dataclass(frozen=True, slots=True)
class Ballot:
    """A globally unique, totally ordered proposal number.

    MultiPaxos ballots are (round, proposer) pairs; Raft terms map onto
    ballots with proposer resolved by the per-term single-leader election.
    """

    round: int = 0
    proposer: str = ""

    def next_for(self, proposer: str) -> "Ballot":
        return Ballot(self.round + 1, proposer)

    def __lt__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) < (other.round, other.proposer)

    def __le__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) <= (other.round, other.proposer)

    def __gt__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) > (other.round, other.proposer)

    def __ge__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) >= (other.round, other.proposer)


@dataclass(slots=True)
class Entry:
    """A log entry.

    `term` is the Raft term (never rewritten by Raft; rewritten on merge by
    Raft*'s BecomeLeader), `ballot` is Raft*'s added per-entry ballot field —
    the field whose absence in Raft blocks the direct refinement to Paxos
    (§3).  For MultiPaxos entries, `term` and `ballot` coincide with the
    accepted ballot round.
    """

    term: int
    command: Command
    ballot: int = -1

    def wire_size(self) -> int:
        return 16 + self.command.wire_size()

    def copy(self) -> "Entry":
        return Entry(term=self.term, command=self.command, ballot=self.ballot)
