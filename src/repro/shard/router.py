"""Shard-aware client routing: policies over the pipelined `Session`.

A `ShardRouter` is the client-side routing table: key -> owning shard
(via the partitioner) and shard -> the server a client in a given site
should contact (the shard's replica in the client's own region, so the
first hop is always local, as in the single-group deployment).  The table
is epoch-versioned: when a server on a newer partition map rejects a
request it ships the map (`ShardMap`) along with the redirect, and
`refresh` rebuilds the whole table — one stale request repairs routing for
every client sharing the router.

`ShardRoutedClient` is the session with two policies plugged into its
seams rather than a separate request loop:

* **routing** — `_route` sends each admitted command to the owning
  group's local replica; a shipped map refreshes the shared table, and a
  request is re-pointed at the owner under the current table whenever its
  own rejection falls through to the backoff path (other window slots
  keep their in-flight target until they are answered — each re-routes
  off its own reply, but all of them read the one refreshed table);
* **redirects** — a server that does not own the requested key rejects
  with a `shard_hint`, and the client re-sends that request (the others
  in the window are untouched) to the hinted group immediately.
  Redirects are capped *per request*: mid-reshard, two groups can
  disagree about a boundary key — the donor has exported it, the
  recipient has not yet imported it — and uncapped hint-following would
  bounce the request between them indefinitely.  After `num_shards`
  consecutive hops the request falls back to the generic backoff retry
  (and counts the event), which breaks the ping-pong and succeeds once
  the migration lands.

Retry machinery is inherited unchanged from the session: no-leader
rejections and dropped replies retry the *same* sequence number against
the same server, and the store's windowed at-most-once dedup keeps
retries safe at any pipeline depth.

`transact(ops)` is the transaction policy on the same session: a
single-shard transaction is one atomic `TXN` command through the owning
group (sharing the window, the seq namespace, and the dedup path of
ordinary commands), while cross-shard transactions go to the 2PC
coordinator under their own (client, txn_seq) namespace; a retry keeps
its txn_seq, and the home shard's commit record keeps it at-most-once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.recorder import RequestRecord
from repro.protocols.messages import (
    ClientReply,
    ClientRequest,
    ShardMap,
    TxnReply,
    TxnRequest,
)
from repro.protocols.types import Command, OpType, Payload, payload_of
from repro.shard.partition import HashRangePartitioner, Partitioner, VersionedPartitioner
from repro.workload.clients import ClosedLoopClient
from repro.workload.session import PendingRequest
from repro.workload.ycsb import WorkloadConfig

# One transaction operation: ("put"|"get", key, value-or-None).
TxnOp = Tuple[str, str, Optional[str]]
TxnOps = Sequence[TxnOp]


class ShardRouter:
    """Routing table shared by the clients of one sharded deployment."""

    def __init__(self, partitioner: Partitioner,
                 local_replica: Dict[int, Dict[str, str]],
                 sites: Optional[Sequence[str]] = None) -> None:
        self.partitioner = partitioner
        # shard -> site -> server name (the shard's replica in that site)
        self.local_replica = local_replica
        # Sites for rebuilding the table on refresh (replicas are named by
        # convention); derived from the table when not given explicitly.
        if sites is not None:
            self.sites = list(sites)
        else:
            self.sites = sorted({site for table in local_replica.values()
                                 for site in table})

    @property
    def num_shards(self) -> int:
        return len(self.local_replica)

    @property
    def epoch(self) -> Optional[int]:
        """The routing table's partition-map epoch (None for plain,
        unversioned partitioners)."""
        return getattr(self.partitioner, "epoch", None)

    def refresh(self, shard_map: ShardMap) -> bool:
        """Adopt a newer partition map shipped by a server; returns whether
        the table changed.  Maps at or behind the current epoch are ignored."""
        current = self.epoch
        if current is not None and shard_map.epoch <= current:
            return False
        self.partitioner = VersionedPartitioner(
            HashRangePartitioner(shard_map.num_shards), shard_map.epoch)
        self.local_replica = {
            shard: {site: f"g{shard}_r_{site}" for site in self.sites}
            for shard in range(shard_map.num_shards)
        }
        return True

    def shard_of(self, key: str) -> int:
        return self.partitioner.shard_of(key)

    def server_for(self, shard: int, site: str) -> str:
        return self.local_replica[shard][site]

    def route(self, key: str, site: str) -> str:
        """The server a client in `site` should send `key`'s request to."""
        return self.server_for(self.shard_of(key), site)


class _PendingTxn:
    """One in-flight cross-shard transaction at the client."""

    __slots__ = ("request", "submitted_at", "attempts", "retry_timer")

    def __init__(self, request: TxnRequest, submitted_at: int,
                 retry_timer) -> None:
        self.request = request
        self.submitted_at = submitted_at
        self.attempts = 0
        self.retry_timer = retry_timer


class ShardRoutedClient(ClosedLoopClient):
    """A session whose routing/redirect/transaction policies are sharded.

    Keys are drawn uniformly from the whole keyspace (plus the workload's
    hot key at the configured conflict rate); the router decides which
    group's local replica serves each request.
    """

    def __init__(self, name, sim, network, site, router: ShardRouter,
                 workload: WorkloadConfig, sites, rng, metrics,
                 stop_at: Optional[int] = None,
                 coordinator: Optional[str] = None,
                 coordinators: Optional[Sequence[str]] = None,
                 **session_kwargs) -> None:
        self.router = router
        self.redirects = 0
        self.capped_redirects = 0
        # -- transactions (`transact`) ----------------------------------
        # Cross-shard transactions go through this coordinator (required
        # only when transact() actually crosses shards); single-shard ones
        # ride the ordinary command path as one atomic TXN command.
        # `coordinators` is the failover ring (ordered, preferred first):
        # every unanswered send moves the client to the next member, which
        # gets the same txn_seq — the home shard's commit record answers a
        # retry of an answered one — so a dead coordinator host costs one
        # retry timeout.
        self._coordinator_ring: List[str] = (
            list(coordinators) if coordinators
            else ([coordinator] if coordinator else []))
        self._coordinator_idx = 0
        self.coordinator = (coordinator if coordinator is not None
                            else (self._coordinator_ring[0]
                                  if self._coordinator_ring else None))
        self.txn_seq = 0
        self._txn_pending: Dict[int, _PendingTxn] = {}
        self.txns_issued = 0
        self.txns_committed = 0
        self.single_shard_txns = 0
        self.cross_shard_txns = 0
        # Called with (client, txn_id, ops, reads, start, end) per commit.
        self.on_txn_complete_hooks: List = []
        # `server` is the fallback target; every command is re-routed.
        super().__init__(name, sim, network, site, router.server_for(0, site),
                         workload, sites, rng, metrics, stop_at=stop_at,
                         **session_kwargs)
        self.on_complete_hooks.append(self._single_txn_complete)

    def _redirect_cap(self) -> int:
        return max(2, self.router.num_shards)

    # -- workload generation (uniform keys over the whole ring) --------------

    def _pick_op(self):
        is_read = self.rng.random() < self.workload.read_fraction
        if self.rng.random() < self.workload.conflict_rate:
            key = self.workload.hot_key
        else:
            key = self.workload.uniform_key(self.rng)
        if is_read:
            return ("get", key, None)
        # Unique write values (the checkers anchor on them): derived from
        # the submission counter, which moves even while ops sit queued.
        return ("put", key, f"{self.name}:{self.submitted + 1}")

    # -- routing policy ------------------------------------------------------

    def _route(self, command: Command) -> str:
        return self.router.route(command.key, self.site)

    def _request_message(self, pending: PendingRequest) -> ClientRequest:
        # Stamp the request with the routing table's epoch so a server on a
        # newer map knows to ship the map back, not just a shard id.
        epoch = self.router.epoch
        return ClientRequest(command=pending.command,
                             epoch=epoch if epoch is not None else 0)

    def _before_reply(self, message: ClientReply) -> None:
        if message.shard_map is not None:
            # A server ahead of us shipped its map: one redirect repairs
            # the whole table for every client sharing this router.
            self.router.refresh(message.shard_map)

    def _on_reject(self, pending: PendingRequest,
                   message: ClientReply) -> bool:
        handled = self._follow_hint(pending, message)
        if not handled and pending.command.shard_checked:
            # Backoff path: point the coming resend at the owner under the
            # current (possibly just-refreshed) table, not at whatever
            # server the last hint chain left this request on.
            pending.server = self.router.route(pending.command.key, self.site)
        return handled

    def _follow_hint(self, pending: PendingRequest,
                     message: ClientReply) -> bool:
        hint = message.shard_hint
        if hint is None or hint not in self.router.local_replica:
            # No hint, or a hint outside our table (a server ahead of us
            # that did not ship a map): fall through to the generic
            # backoff-retry rather than crashing the client.
            return False
        target = self.router.server_for(hint, self.site)
        if target == pending.server:
            # A hint pointing back at the group we just asked (its range is
            # still awaiting import): resending instantly cannot help —
            # take the backoff path and try again shortly.
            return False
        if pending.redirect_hops >= self._redirect_cap():
            # Ping-pong guard: mid-reshard, two groups can bounce a
            # boundary key between them.  Stop following hints, fall back
            # to backoff retry, and start counting hops afresh.
            self.capped_redirects += 1
            self.metrics.incr("capped_redirects")
            pending.redirect_hops = 0
            return False
        # Cancel the pending resend: a backoff armed by an earlier hintless
        # rejection would otherwise fire after this redirect and send a
        # duplicate concurrent request.
        pending.timer.cancel()
        pending.redirect_hops += 1
        self.redirects += 1
        self.metrics.incr("redirects")
        pending.server = target
        if self.obs is not None:
            self.obs_phase(pending.command.trace_id, "redirect")
        self._send(pending)
        return True

    # -- transactions --------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return super().outstanding + len(self._txn_pending)

    @property
    def txns_outstanding(self) -> int:
        """Transactions issued but not yet acknowledged: cross-shard 2PC
        requests plus single-shard TXN commands in the window or queue."""
        pending_txns = sum(1 for pending in self._pending.values()
                           if pending.command.op is OpType.TXN)
        queued_txns = sum(1 for queued in self._submit_queue
                          if queued.kind == "txn")
        return len(self._txn_pending) + pending_txns + queued_txns

    def transact(self, ops: TxnOps) -> None:
        """Issue `ops` as one atomic multi-key transaction.

        Single-shard transactions are sent as one `TXN` command through the
        owning group — the full epoch/redirect/dedup/pipelining machinery
        of ordinary commands applies unchanged.  Cross-shard transactions
        go to the transaction coordinator, which runs 2PC through the
        participant groups' logs; the client's retry (same `txn_seq`) of
        an answered transaction is answered from its home shard's commit
        record."""
        ops = [tuple(op) for op in ops]
        if not ops:
            return
        self.txns_issued += 1
        shards = {self.router.shard_of(key) for _, key, _ in ops}
        if len(shards) == 1:
            self.single_shard_txns += 1
            self.submit("txn", ops[0][1], Payload({"ops": ops}))
            return
        if self.coordinator is None:
            raise RuntimeError(
                f"{self.name}: cross-shard transaction but no coordinator set")
        self.cross_shard_txns += 1
        self.txn_seq += 1
        request = TxnRequest(
            client=self.name, txn_seq=self.txn_seq, ts=self.sim.now,
            ops=[list(op) for op in ops], epoch=self.router.epoch)
        pending = _PendingTxn(request, self.sim.now,
                              self.timer(f"txn-retry:{self.txn_seq}"))
        self._txn_pending[self.txn_seq] = pending
        if self.obs is not None:
            # 2PC spans live in the "t" namespace: the coordinator derives
            # the same id from (client, txn_seq) and stamps it into every
            # child command, so all of the transaction's prepares/commits
            # across shards fold into this one span.
            self.obs_phase(self._txn_trace(self.txn_seq), "submit")
        self._send_txn(pending)

    def _txn_trace(self, txn_seq: int) -> str:
        return f"{self.name}:t{txn_seq}"

    def _send_txn(self, pending: _PendingTxn) -> None:
        pending.attempts += 1
        if len(self._coordinator_ring) > 1 and pending.attempts > 1:
            self._coordinator_idx = ((self._coordinator_idx + 1)
                                     % len(self._coordinator_ring))
            self.coordinator = self._coordinator_ring[self._coordinator_idx]
        if self.obs is not None:
            self.obs_phase(self._txn_trace(pending.request.txn_seq), "send")
        self.send(self.coordinator, pending.request)
        pending.retry_timer.arm(
            self.retry.retry_delay(pending.attempts - 1, self.rng),
            lambda: self._send_txn(pending))

    def pending_ops(self) -> List[TxnOp]:
        """The operations of everything in flight right now (for end-of-run
        accounting: these may or may not have executed)."""
        ops: List[TxnOp] = []
        for txn_seq in sorted(self._txn_pending):
            ops.extend(tuple(op)
                       for op in self._txn_pending[txn_seq].request.ops)
        for command in self.pending_commands():
            if command.op is OpType.TXN:
                ops.extend(tuple(op) for op in
                           payload_of(command).get("ops", []))
            elif command.op is OpType.PUT:
                ops.append(("put", command.key, command.value))
            elif command.op is OpType.GET:
                ops.append(("get", command.key, None))
        return ops

    def _single_txn_complete(self, command: Command, reply: ClientReply,
                             start: int, end: int) -> None:
        if command.op is not OpType.TXN:
            return
        reads = payload_of(reply).get("reads", {})
        ops = payload_of(command).get("ops", [])
        self._finish_txn(f"{self.name}:s{command.seq}", ops, reads, start, end)

    def _finish_txn(self, txn_id: str, ops, reads, start: int, end: int) -> None:
        self.txns_committed += 1
        for hook in self.on_txn_complete_hooks:
            hook(self, txn_id, [tuple(op) for op in ops], reads, start, end)

    def _on_txn_reply(self, message: TxnReply) -> None:
        if message.client != self.name:
            return
        pending = self._txn_pending.get(message.txn_seq)
        if pending is None:
            return  # stale reply from an already-answered transaction
        pending.retry_timer.cancel()
        del self._txn_pending[message.txn_seq]
        if self.obs is not None:
            self.obs_phase(self._txn_trace(message.txn_seq), "complete")
        request = pending.request
        start, end = pending.submitted_at, self.sim.now
        self.metrics.add(RequestRecord(
            client=self.name, site=self.site, server=message.server,
            op=OpType.TXN, start=start, end=end, ok=True))
        self._finish_txn(f"{request.client}:{request.txn_seq}", request.ops,
                         message.reads, start, end)
        self._refill()

    def on_message(self, src: str, message) -> None:
        if isinstance(message, TxnReply):
            self._on_txn_reply(message)
            return
        super().on_message(src, message)
