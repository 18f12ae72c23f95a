"""The client session: pipelined requests over one (client_id, seq) namespace.

A `Session` is the client-side core every workload driver in this repo is a
thin policy over.  It owns:

* the **sequence namespace** — every operation gets the next seq, and the
  (client_id, seq) pair is the at-most-once identity the stores dedup on;
* a **pipeline window** of up to `depth` concurrent in-flight commands.
  Each operation is one `PendingRequest` record from submission to ack,
  and an in-flight one carries one timer — the lost-reply resend or the
  rejection backoff, never both at once; replies complete out of order
  (matched by request id), and stale replies — retransmits of
  already-answered requests — are discarded;
* the **acked low-water mark**: the largest L such that every seq <= L is
  acknowledged.  Each outgoing command is stamped with it
  (`Command.acked_low_water`), which is what lets the server's windowed
  dedup (`kvstore.store.DedupSession`) evict safely;
* per-operation **consistency levels** (`Consistency`): DEFAULT lets the
  protocol serve a read from its lease where it has one, LINEARIZABLE
  forces the log;
* a **submit queue** for operations arriving while the window is full
  (open-loop drivers submit on their own clock; latency is measured from
  submission, so queueing delay — the knee of the latency-vs-offered-load
  curve — is part of the number).

Drivers plug in at three seams: `_issue_one()` (closed-loop generation),
`_route(key)` (shard routing), and `_on_reject(...)` (redirect policies).
`ClosedLoopClient` with `depth=1` reproduces the original closed-loop
client exactly; `ShardRoutedClient` layers routing and transactions on the
same machinery.

Retry timing is policy, not constants: `RetryPolicy` gives jittered
exponential backoff for both the lost-reply resend timeout and the
rejection backoff, so a whole pipeline window rejected at once (a leader
election, a draining migration) de-synchronizes instead of hammering in
lockstep.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.metrics.recorder import MetricsRecorder, RequestRecord
from repro.protocols.messages import ClientReply, ClientRequest
from repro.protocols.types import Command, Consistency, OpType
from repro.sim.node import Host, Node, NodeCosts, Timer
from repro.sim.units import ms, sec


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for the two client retry paths.

    `retry_timeout` re-sends a request whose reply never came (loss,
    crash); `backoff_base` delays the resend after an explicit rejection
    (no leader yet, draining migration).  Both grow by `multiplier` per
    consecutive occurrence on the same request, capped (`retry_cap` /
    `backoff_cap`), and every delay is spread by +/- `jitter` (a fraction)
    so a rejected pipeline window's retries fan out instead of arriving as
    one synchronized storm.  The defaults reproduce the legacy constants
    (5 s timeout, 20 ms backoff) as the *base* of the schedule.
    """

    retry_timeout: int = sec(5)
    retry_cap: int = sec(20)
    backoff_base: int = ms(20)
    backoff_cap: int = ms(320)
    multiplier: float = 2.0
    jitter: float = 0.1

    def _jittered(self, delay: float, rng) -> int:
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(1, int(delay))

    def retry_delay(self, attempt: int, rng) -> int:
        """Resend timeout before the `attempt`-th retransmit (0-based)."""
        delay = min(self.retry_timeout * self.multiplier ** attempt,
                    float(self.retry_cap))
        return self._jittered(delay, rng)

    def backoff_delay(self, rejections: int, rng) -> int:
        """Backoff after the `rejections`-th consecutive rejection (1-based)."""
        delay = min(self.backoff_base * self.multiplier ** max(0, rejections - 1),
                    float(self.backoff_cap))
        return self._jittered(delay, rng)


class RingRetry:
    """One request from one node, re-sent around a ring of servers until it
    is acknowledged: send to `ring[idx]`, move one server on after every
    `ROTATE_AFTER` unanswered sends, re-arm the resend timeout per send, back
    off after an explicit rejection.  The shape a membership driver's config
    change and a reshard coordinator's migration step share.

    Not for `ReplicatedCoordinator.journal` (no ring, many appends in
    flight), `TxnCoordinator` (a tick sweep over its transactions, no timer
    per request) or `ShardRoutedClient._send_txn` (the ring index belongs to
    the client, not to a request): those loops differ in kind, so they stay
    where they are rather than becoming modes of this one.
    """

    ROTATE_AFTER = 2  # unanswered sends per server before moving on

    def __init__(self, node: Node, timer_name: str, policy: RetryPolicy,
                 rng) -> None:
        self.node = node
        self.policy = policy
        self.rng = rng
        self.timer = node.timer(timer_name)
        self.request: Optional[ClientRequest] = None  # None = idle

    def start(self, ring: List[str], request: ClientRequest) -> None:
        self.ring = ring
        self.idx = self.sends = self.rejections = 0
        self.request = request
        self.send()

    def send(self) -> None:
        if self.request is None or not self.node.alive:
            return
        if self.sends and self.sends % self.ROTATE_AFTER == 0:
            self.idx = (self.idx + 1) % len(self.ring)
        self.sends += 1
        self.node.send(self.ring[self.idx], self.request)
        self.timer.arm(self.policy.retry_delay(self.sends - 1, self.rng),
                       self.send)

    def acknowledged(self, message) -> Optional[ClientRequest]:
        """Feed a received message.  The ok reply to the request in flight
        stops the loop and returns that request; a rejection (no leader
        yet, a retired hop) backs off and retries — the ring keeps
        rotating; anything else, a stale reply of a superseded request
        included, is ignored."""
        request = self.request
        if (request is None or not isinstance(message, ClientReply)
                or message.request_id != request.command.request_id):
            return None
        if not message.ok:
            self.rejections += 1
            self.timer.arm(
                self.policy.backoff_delay(self.rejections, self.rng), self.send)
            return None
        self.timer.cancel()
        self.request = None
        return request

    def abandon(self) -> None:
        """The node crashed: a resend still queued finds nothing to send."""
        self.request = None


class AckFloor:
    """The contiguous-acknowledgement floor of a pipelined namespace:
    the largest L such that every seq <= L is acked, maintained under
    out-of-order ack arrivals.  Shared by the session's command seqs and
    the control journal's appends — it is the value stamped into outgoing
    requests to drive the server-side dedup-window eviction."""

    __slots__ = ("floor", "_above")

    def __init__(self, floor: int = 0) -> None:
        self.floor = floor
        self._above: set = set()

    def ack(self, seq: int) -> None:
        self._above.add(seq)
        while self.floor + 1 in self._above:
            self.floor += 1
            self._above.discard(self.floor)


class PendingRequest:
    """One operation of the session, from submission to acknowledgement:
    queued until a window slot frees, then in flight.  `command`,
    `server` and `timer` are set on admission; the one timer is either the
    lost-reply resend or the rejection backoff — the two are never armed
    together."""

    __slots__ = ("kind", "key", "value", "consistency", "value_size",
                 "trace", "submitted_at", "on_done", "command", "server",
                 "timer", "attempts", "rejections", "redirect_hops")

    def __init__(self, kind: str, key: str, value: Optional[str],
                 consistency: Consistency, submitted_at: int,
                 value_size: Optional[int], on_done,
                 trace: Optional[str] = None) -> None:
        self.kind = kind
        self.key = key
        self.value = value
        self.consistency = consistency
        self.value_size = value_size
        # Span id allocated at submit time (before the seq exists), so the
        # queueing delay ahead of window admission is part of the span.
        self.trace = trace
        self.submitted_at = submitted_at  # entered the session (queue incl.)
        self.on_done = on_done
        self.command: Optional[Command] = None
        self.server: Optional[str] = None
        self.timer: Optional[Timer] = None
        self.attempts = 0                 # sends so far
        self.rejections = 0               # consecutive ok=False replies
        self.redirect_hops = 0            # consecutive shard redirects


_OPS = {"get": OpType.GET, "put": OpType.PUT, "txn": OpType.TXN}


class Session(Node):
    """A pipelined client session bound to (by default) one server.

    Not a workload by itself: call `get`/`put`/`batch` (or let a driver
    subclass generate operations) and completions arrive via
    `on_complete_hooks` / per-op `on_done` callbacks.
    """

    def __init__(self, name, sim, network, site, server: str,
                 workload, sites, rng, metrics: MetricsRecorder,
                 stop_at: Optional[int] = None, depth: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 host: Optional[Host] = None) -> None:
        # Clients are not the measured resource: make their CPU free so the
        # servers are the only bottleneck.
        super().__init__(name, sim, network, site=site,
                         costs=NodeCosts(per_message=0, per_byte=0.0),
                         host=host)
        self.server = server
        self.workload = workload
        self.sites = list(sites)
        self.rng = rng
        self.metrics = metrics
        self.stop_at = stop_at
        self.depth = max(1, depth)
        self.retry = retry if retry is not None else RetryPolicy()

        # The workload's value size never changes mid-run: resolve the
        # per-op default once instead of a getattr per admission.
        self._default_value_size = getattr(workload, "value_size", 8)
        self.seq = 0                 # last allocated sequence number
        self.submitted = 0           # operations accepted (window + queue)
        self.completed = 0
        # All seqs <= acked_floor are acknowledged.  Seqs start at 1, so
        # the vacuous floor is 0 (a floor of 0 evicts nothing server-side).
        self._ack_floor = AckFloor()
        self._pending: Dict[int, PendingRequest] = {}
        self._submit_queue: Deque[PendingRequest] = deque()
        # Called with (command, reply, start, end) on every success —
        # the sharded layer wires history checkers through this.
        self.on_complete_hooks: List[Callable] = []

    # -- introspection -------------------------------------------------------

    @property
    def acked_floor(self) -> int:
        """Largest L with every seq <= L acknowledged (stamped into every
        outgoing command as `acked_low_water`)."""
        return self._ack_floor.floor

    @property
    def in_flight(self) -> Optional[Command]:
        """The oldest un-answered command (None when the window is empty).
        With depth 1 this is *the* in-flight command, as before."""
        if not self._pending:
            return None
        return self._pending[min(self._pending)].command

    @property
    def in_flight_count(self) -> int:
        return len(self._pending)

    @property
    def queued_count(self) -> int:
        return len(self._submit_queue)

    @property
    def outstanding(self) -> int:
        """Operations submitted but not yet acknowledged (window + queue).
        Drivers refill against this, so queued work counts as occupancy."""
        return len(self._pending) + len(self._submit_queue)

    def pending_commands(self) -> List[Command]:
        return [self._pending[seq].command for seq in sorted(self._pending)]

    @property
    def window_free(self) -> bool:
        return len(self._pending) < self.depth

    # -- the session API -----------------------------------------------------

    def get(self, key: str, consistency: Consistency = Consistency.DEFAULT,
            value_size: Optional[int] = None, on_done=None) -> None:
        """Read `key` at the given consistency."""
        self.submit("get", key, None, consistency=consistency,
                    value_size=value_size, on_done=on_done)

    def put(self, key: str, value: str, value_size: Optional[int] = None,
            on_done=None) -> None:
        """Write `key`; at-most-once under retries by (client_id, seq)."""
        self.submit("put", key, value, value_size=value_size, on_done=on_done)

    def batch(self, ops, on_done=None) -> None:
        """Submit many independent operations through the pipeline window.

        `ops` is a sequence of ("get"|"put", key, value) triples.  NOT
        atomic — each op is its own command and may land on a different
        shard; the window is what makes the batch fast.  For atomicity use
        `transact` (a routing/txn policy, e.g. `ShardRoutedClient`)."""
        for op, key, value in ops:
            self.submit(op, key, value, on_done=on_done)

    def transact(self, ops) -> None:
        raise NotImplementedError(
            "transactions need a routing policy: use ShardRoutedClient "
            "(single-shard atomic commands + cross-shard 2PC) on top of "
            "this session")

    def submit(self, kind: str, key: str, value: Optional[str],
               consistency: Consistency = Consistency.DEFAULT,
               value_size: Optional[int] = None, on_done=None) -> None:
        """Enqueue one operation; it enters the window as soon as a slot is
        free.  Latency counts from *now* (queueing delay included)."""
        self.submitted += 1
        trace = None
        if self.obs is not None:
            # "s" namespace: allocated per submission, disjoint from the
            # default `client:seq` trace ids commands fall back to.
            trace = f"{self.name}:s{self.submitted}"
        pending = PendingRequest(kind, key, value, consistency, self.sim.now,
                                 value_size, on_done, trace=trace)
        if trace is not None:
            self.obs_phase(trace, "submit")
        if self.window_free:
            self._admit(pending)
        else:
            self._submit_queue.append(pending)

    # -- window management ---------------------------------------------------

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _admit(self, pending: PendingRequest) -> None:
        seq = self._next_seq()
        if pending.value_size is not None:
            value_size = pending.value_size
        elif pending.kind == "txn" and pending.value is not None:
            value_size = len(pending.value)
        else:
            value_size = self._default_value_size
        command = pending.command = Command(
            op=_OPS[pending.kind], key=pending.key, value=pending.value,
            client_id=self.name, seq=seq, value_size=value_size,
            acked_low_water=self._ack_floor.floor,
            consistency=pending.consistency, trace=pending.trace)
        pending.server = self._route(command)
        pending.timer = self.timer("retry")
        self._pending[seq] = pending
        if pending.trace is not None:
            self.obs_phase(pending.trace, "admit")
        self._send(pending)

    def _route(self, command: Command) -> str:
        """Routing policy seam: which server serves this command."""
        return self.server

    def _request_message(self, pending: PendingRequest) -> ClientRequest:
        """Hook: sharded clients stamp the request with their map epoch."""
        return ClientRequest(command=pending.command)

    def _send(self, pending: PendingRequest) -> None:
        pending.attempts += 1
        if self.obs is not None:
            self.obs_phase(pending.command.trace_id, "send")
        self.send(pending.server, self._request_message(pending))
        pending.timer.arm(
            self.retry.retry_delay(pending.attempts - 1, self.rng),
            lambda: self._resend(pending))

    def _resend(self, pending: PendingRequest) -> None:
        """Retry-timeout path: re-resolve routing before re-sending.  The
        routing table may have repointed while the request sat unanswered —
        a replaced host never answers, so without this a client whose only
        window slot targets the dead replica retries it forever."""
        pending.server = self._route(pending.command)
        self._send(pending)

    # -- replies -------------------------------------------------------------

    def on_message(self, src: str, message) -> None:
        if not isinstance(message, ClientReply):
            return
        self._before_reply(message)
        client_id, seq = message.request_id
        pending = self._pending.get(seq) if client_id == self.name else None
        if pending is None or pending.command.request_id != message.request_id:
            return  # stale reply from an already-answered request
        if not message.ok:
            if self.obs is not None:
                self.obs_phase(pending.command.trace_id, "reject")
            if self._on_reject(pending, message):
                return  # a redirect policy re-sent it
            # No leader yet (or leadership changed mid-flight): back off and
            # retry.  The request IS answered, so the backoff takes the
            # lost-reply resend's place on the one timer; a duplicate
            # rejection re-arms it, and the lazy re-arm keeps the earlier
            # backoff's queued event.
            pending.rejections += 1
            pending.timer.arm(
                self.retry.backoff_delay(pending.rejections, self.rng),
                lambda: self._send(pending))
            return
        self._complete(pending, message)

    def _before_reply(self, message: ClientReply) -> None:
        """Hook: runs on every reply before matching (map refreshes)."""

    def _on_reject(self, pending: PendingRequest, message: ClientReply) -> bool:
        """Hook: redirect policies return True when they re-routed the
        request themselves (the generic backoff path is skipped)."""
        return False

    def _complete(self, pending: PendingRequest, message: ClientReply) -> None:
        command = pending.command
        pending.timer.cancel()
        del self._pending[command.seq]
        if self.obs is not None:
            self.obs_phase(command.trace_id, "complete")
        self.completed += 1
        self._ack_floor.ack(command.seq)
        for hook in self.on_complete_hooks:
            hook(command, message, pending.submitted_at, self.sim.now)
        if pending.on_done is not None:
            pending.on_done(command, message)
        self.metrics.add(RequestRecord(
            client=self.name,
            site=self.site,
            # The server the request was last sent to (after any shard
            # redirects) — not the replying leader a relay answered from.
            server=pending.server,
            op=command.op,
            start=pending.submitted_at,
            end=self.sim.now,
            ok=True,
            local_read=message.local_read,
        ))
        self._slot_freed()

    def _slot_freed(self) -> None:
        while self._submit_queue and self.window_free:
            self._admit(self._submit_queue.popleft())
        self._refill()

    # -- driver seams --------------------------------------------------------

    def _refill(self) -> None:
        """Hook: closed-loop drivers issue new work here."""

    def _generation_stopped(self) -> bool:
        return self.stop_at is not None and self.sim.now >= self.stop_at

    # -- lifecycle -----------------------------------------------------------

    def on_crash(self) -> None:
        for pending in self._pending.values():
            pending.timer.cancel()
        self._pending.clear()
        self._submit_queue.clear()
