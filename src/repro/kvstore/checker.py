"""History recording and safety checks.

The checker consumes per-replica apply streams and per-client operation
histories and verifies the invariants the protocols promise:

* **committed-prefix agreement** — every apply of an index, by any replica
  or by one replaying after a crash, matches the group's one log, kept as
  index -> first apply and checked as each apply arrives (State Machine
  Safety);
* **per-key linearizability** (`check_linearizability`) — every acked GET
  and PUT of a key, from any client and served by any path (lease-local or
  log), fits one order that respects real time and the log's write order:
  the PQL guarantee, judged by what clients saw;
* **strict serializability of committed transactions**
  (`check_strict_serializability`) — the multi-key contract of the 2PC
  layer in `repro.shard.txn`, checked Elle-style over the per-key version
  orders the stores record.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.kvstore.store import migrated_install_orders
from repro.protocols.types import Command, OpType


@dataclass(frozen=True)
class HistoryEvent:
    """One completed client operation."""

    client: str
    seq: int
    op: OpType
    key: str
    value: Optional[str]
    start: int
    end: int
    server: str
    local_read: bool = False


class HistoryChecker:
    """Accumulates applies into the group's one log (`log`: index -> first
    replica, command) and client events, then checks invariants."""

    def __init__(self) -> None:
        self.log: Dict[int, Tuple[str, Command]] = {}
        self.events: List[HistoryEvent] = []
        self._forks: Dict[int, str] = {}  # first disagreement per index

    # -- recording ----------------------------------------------------------

    def record_apply(self, replica: str, index: int, command: Command) -> None:
        first, held = self.log.setdefault(index, (replica, command))
        if held is command or index in self._forks:
            return  # the first apply, or one command delivered to both
        if (held.client_id, held.seq, held.op, held.key, held.value) != (
                command.client_id, command.seq, command.op, command.key,
                command.value):
            self._forks[index] = (f"replicas {first} and {replica} disagree "
                                  f"at index {index}: {held} vs {command}")

    def record_event(self, event: HistoryEvent) -> None:
        self.events.append(event)

    # -- checks ---------------------------------------------------------------

    def check_prefix_agreement(self) -> List[str]:
        """One violation per index an apply disagreed with the log at."""
        return list(self._forks.values())

    def value_ranks(self) -> Dict[str, Dict[str, int]]:
        """Per key, each written value's position in the key's install
        order, the order `check_linearizability` ranks values by: one
        pass over the group's one log in index order.  Values a reshard
        moved rank in the order their `MIGRATE_IN` carries."""
        log = self.log
        ranks: Dict[str, Dict[str, int]] = {}
        for index in sorted(log):
            command = log[index][1]
            if command.op is OpType.PUT:
                order = ranks.setdefault(command.key, {})
                order.setdefault(command.value or "", len(order))
            elif command.op is OpType.MIGRATE_IN:
                for key, values in migrated_install_orders(command).items():
                    order = ranks.setdefault(key, {})
                    for value in values:
                        order.setdefault(value, len(order))
        return ranks

    def check_linearizability(self) -> List[str]:
        """Per key, the acked GETs and PUTs linearize in real time.

        Values are unique and the log fixes the write order, so each
        event has a rank (`value_ranks`; a read of None ranks -1) and a
        key's history is linearizable iff (Gibbons & Korach 1997, the
        fixed-write-order case):

        (A) no event precedes one of lower rank — a precedes b when
            ``a.end < b.start``; an ack and an invoke at one tick are
            concurrent;
        (B) a read's write, when acked, starts before the read ends.

        (A) is a sort by end under a running max rank and one bisect per
        event on its start, O(n log n), one violation per offending event.
        Events whose value has no rank (written by a transaction and never
        moved) are skipped: dropping a write with all its reads
        keeps the check sound.  Unacked writes constrain nothing."""
        violations = []
        ranks = self.value_ranks()
        by_key: Dict[str, List[Tuple[HistoryEvent, int]]] = {}
        write_start: Dict[Tuple[str, int], int] = {}
        for event in self.events:
            if event.op is OpType.GET and event.value is None:
                rank = -1
            else:
                rank = ranks.get(event.key, {}).get(event.value or "")
                if rank is None:
                    continue
                if event.op is OpType.PUT:
                    write_start[(event.key, rank)] = event.start
            by_key.setdefault(event.key, []).append((event, rank))
        for key, ranked in by_key.items():
            ranked.sort(key=lambda item: item[0].end)
            ends = [event.end for event, _rank in ranked]
            newest = list(accumulate((rank for _event, rank in ranked), max))
            for event, rank in ranked:
                path = "lease-local" if event.local_read else "log"
                kind = "read" if event.op is OpType.GET else "write"
                before = bisect.bisect_left(ends, event.start)
                if before and newest[before - 1] > rank:
                    violations.append(
                        f"{kind} by {event.client} seq {event.seq} ({path}): "
                        f"key={key} has rank {rank} but rank "
                        f"{newest[before - 1]} completed before it began")
                if kind == "read" and rank >= 0:
                    start = write_start.get((key, rank))
                    if start is not None and start > event.end:
                        violations.append(
                            f"read by {event.client} seq {event.seq} "
                            f"({path}): key={key} returned {event.value!r}, "
                            f"whose write began at {start}, after the read "
                            f"ended at {event.end}")
        return violations

    def check_all(self) -> List[str]:
        return self.check_prefix_agreement() + self.check_linearizability()


def record_client_events(clients, checker_of) -> None:
    """Feed every success the `clients` complete into the `HistoryChecker`
    that `checker_of(server)` names for the answering server (None: not
    checked) — the client-visible events `check_linearizability` judges,
    lease-local and log-served reads alike.  The one hook both harnesses
    install: a single group maps every server to its checker, a sharded
    run each server to its shard's, so events stay attributed correctly
    even while a reshard moves keys between groups."""

    def record(command: Command, reply, start: int, end: int) -> None:
        if not command.is_data:
            return  # transactions are checked by the txn-level checker
        checker = checker_of(reply.server)
        if checker is None:
            return
        value = command.value if command.op is OpType.PUT else reply.value
        checker.record_event(HistoryEvent(
            client=command.client_id, seq=command.seq, op=command.op,
            key=command.key, value=value, start=start, end=end,
            server=reply.server, local_read=reply.local_read,
        ))

    for client in clients:
        client.on_complete_hooks.append(record)


# ---------------------------------------------------------------------------
# Strict serializability of multi-key transactions (repro.shard.txn)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TxnEvent:
    """One committed (client-acknowledged) transaction.

    `ops` is a tuple of ``(op, key, value)``: for "put" the value written,
    for "get" the value observed at the 2PC serialization point.  `start`
    and `end` are the client-side issue and acknowledgement times — the
    real-time interval the serialization point must fall inside."""

    txn_id: str
    start: int
    end: int
    ops: Tuple[Tuple[str, str, Optional[str]], ...]


def check_strict_serializability(events: Sequence[TxnEvent],
                                 write_orders: Dict[str, List[str]],
                                 ) -> List[str]:
    """Verify the committed transactions admit a serial order that (a)
    explains every read and write and (b) respects real time.

    General serializability checking is NP-hard, but this workload gives
    two anchors that make it polynomial (the same ones Elle exploits):
    every written value is unique, and `write_orders` — the per-key install
    order recorded by the owning group's replicated store — is the actual
    per-key version order.  From those we build the classic precedence
    graph over committed transactions:

    * ww: consecutive installed writes of a key order their writers;
    * wr: a read of value v is ordered after v's writer;
    * rw: a read of version i is ordered before the writer of version i+1
      (a read of a missing key before the key's first writer);
    * rt: T1 precedes T2 whenever T1's ack returned before T2 was issued.

    A cycle in the union is a violation; acyclic means a topological order
    exists that is serial, explains the history, and embeds real time —
    i.e. the history is strictly serializable.  Transactions that committed
    but were never acknowledged (client still in flight) have no event:
    their writes hold positions in the version order but impose no
    constraints, so the check is sound (never a false violation) and
    complete over the acknowledged history.

    Also flags directly observable faults: a value installed twice (a
    retry that re-executed) and a read of a value no store ever installed
    (a dirty or invented read).
    """
    violations: List[str] = []
    txns: Dict[str, TxnEvent] = {event.txn_id: event for event in events}

    writer_of: Dict[Tuple[str, str], str] = {}
    for event in events:
        for op, key, value in event.ops:
            if op == "put" and value is not None:
                writer_of[(key, value)] = event.txn_id

    edges: Dict[str, set] = {txn_id: set() for txn_id in txns}

    def add_edge(a: Optional[str], b: Optional[str]) -> None:
        if a is not None and b is not None and a != b:
            edges[a].add(b)

    index_of: Dict[Tuple[str, str], int] = {}
    for key, order in write_orders.items():
        seen: Dict[str, int] = {}
        previous = None
        for position, value in enumerate(order):
            if value in seen:
                violations.append(
                    f"value {value!r} installed twice at key {key!r} "
                    f"(positions {seen[value]} and {position}): an "
                    f"acknowledged write re-executed")
            seen[value] = position
            index_of[(key, value)] = position
            writer = writer_of.get((key, value))
            if writer is not None:
                add_edge(previous, writer)   # ww (transitively via the chain)
                previous = writer

    def next_writer(key: str, after: int) -> Optional[str]:
        order = write_orders.get(key, [])
        for value in order[after + 1:]:
            writer = writer_of.get((key, value))
            if writer is not None:
                return writer
        return None

    for event in events:
        for op, key, value in event.ops:
            if op != "get":
                continue
            if value is None:
                add_edge(event.txn_id, next_writer(key, -1))  # rw from "missing"
                continue
            position = index_of.get((key, value))
            if position is None:
                violations.append(
                    f"txn {event.txn_id} read {value!r} at key {key!r}, a "
                    f"value no store ever installed (dirty or invented read)")
                continue
            add_edge(writer_of.get((key, value)), event.txn_id)   # wr
            add_edge(event.txn_id, next_writer(key, position))    # rw

    if violations:
        return violations

    remaining = unordered(txns, edges)
    if remaining:
        sample = sorted(remaining)[:6]
        violations.append(
            f"dependency/real-time cycle among committed transactions "
            f"(no strict-serial order exists); {len(remaining)} involved, "
            f"e.g. {sample}")
    return violations


def unordered(txns: Dict[str, TxnEvent], edges: Dict[str, set]) -> Set[str]:
    """The transactions no strict-serial order reaches: what topological
    elimination over the dependency `edges` plus the implicit real-time
    edges leaves (empty iff the history is strictly serializable)."""
    # A transaction is removable once all its graph predecessors are gone
    # AND no remaining transaction finished before it started.  Removing
    # one only ever unblocks others, so the removable set is one fixpoint,
    # reached in one sweep: take the earliest-starting transaction with no
    # remaining predecessor while nothing remaining ended before it
    # started.  Once that one is blocked, so is every later starter, and
    # what remains is stuck.  (An ack never precedes its own invocation,
    # so a transaction never blocks itself.)
    indegree = {txn_id: 0 for txn_id in txns}
    for outs in edges.values():
        for b in outs:
            indegree[b] += 1
    remaining = set(txns)
    ready = [(txns[t].start, t) for t in txns if indegree[t] == 0]
    heapq.heapify(ready)
    # Remaining ends, smallest first; eliminated ones are dropped lazily.
    ends = [(txns[t].end, t) for t in txns]
    heapq.heapify(ends)
    while ready:
        start, txn_id = ready[0]
        while ends[0][1] not in remaining:
            heapq.heappop(ends)
        if ends[0][0] < start:
            break
        heapq.heappop(ready)
        remaining.discard(txn_id)
        for successor in edges[txn_id]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, (txns[successor].start, successor))
    return remaining
