"""The replicated control plane: coordinator decision logs as consensus.

Both shard-layer coordinators (`TxnCoordinator`, `ReshardCoordinator`)
used to be single reliable nodes — the exact caveat the paper's
protocol-agnostic thesis exists to remove.  This module runs each
coordinator family's decision log as **its own consensus group**, reusing
the unmodified protocol stack underneath:

* `ControlGroup` — a dedicated replica group (one replica per site, any
  leader-based protocol from the registry) whose log carries only small
  JSON *journal records*.  Its timers are tightened relative to the data
  groups (elections in hundreds of milliseconds, not seconds): the control
  log is tiny, so fast elections are safe, and failover latency is bounded
  by them.  Each site's control replica shares a `Host` with that site's
  coordinator — the machine is the crash unit, so a host kill takes the
  coordinator *and* its local journal access down together (the honest
  case).

* `ControlView` — one site's materialized state of the journal, updated by
  the local replica's `on_apply_hooks`.  Every update is idempotent and
  monotone (fence epochs and lease stamps only rise, ownership claims are
  first-wins in log order), because a recovering replica re-applies its
  log from index 0 and re-fires every hook — including entries whose dedup
  slot answered a retransmit.

* `ReplicatedCoordinator` — the coordinator base: `journal()` appends a
  record through the local control replica (at-most-once via a
  stable-storage sequence number, retried on the jittered-exponential
  `RetryPolicy`), a lease tick renews this coordinator's liveness claim,
  and lease expiry is what standbys act on — takeover is *itself a journal
  record* (first committed claim wins in log order), so two standbys
  racing to adopt a dead peer converge without talking to each other.

The journal record schema (JSON, discriminated by `"k"`):

    {"k": "lease", "o": <member>}                        liveness renewal
    {"k": "fence", "o": <member>, "fe": <epoch>}         (re)join / re-take
    {"k": "take",  "v": <victim>, "by": <member>, "fe": <epoch>}  takeover
    {"k": "claim", "o": <member>, "e": <owner epoch>}    single-owner claim
    {"k": "adv",   "s": <step>}                          reshard cursor

Each also carries its journal stamp `"t"`.  Only liveness and ownership
facts: a transaction's outcome lives in its home shard's log alone.

`fence`/`take` raise a per-member fence epoch (max-merge): commands
stamped with an older epoch are refused by the data-plane stores, which is
what makes a fenced coordinator's in-flight work inert.  `claim` rotates a
single-owner role (the reshard driver): a claim commits only if its `e` is
exactly the successor of the current owner epoch, so exactly one standby
wins each rotation no matter how many raced.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.recorder import MetricsRecorder
from repro.protocols.config import geo_cluster
from repro.protocols.messages import ClientReply, ClientRequest
from repro.protocols.registry import MENCIUS_PROTOCOLS, PROTOCOLS
from repro.protocols.types import Command, OpType, Payload, payload_of
from repro.sim.node import Host, Node, NodeCosts
from repro.sim.units import ms, sec
from repro.workload.session import AckFloor, RetryPolicy

CONTROL_CLIENT_PREFIX = "__ctl__:"

#: Journal retries: the control group is one (usually local) hop away, so
#: the base timeout is far below the WAN client default — a lost journal
#: append must not stall failover for seconds.
CONTROL_RETRY = RetryPolicy(retry_timeout=ms(250), retry_cap=sec(2),
                            backoff_base=ms(20), backoff_cap=ms(320))

#: The control group's own election timeout range and heartbeat.
CONTROL_ELECTION_TIMEOUT = (ms(400), ms(800))
CONTROL_HEARTBEAT = ms(60)


class ControlView:
    """One site's materialized journal state (idempotent under replay)."""

    def __init__(self, initial_owner: Optional[str] = None,
                 clock: Optional[Callable[[], int]] = None) -> None:
        # member -> highest fence epoch journaled for it.  A member's
        # commands stamped below its fence are refused by the data plane.
        self.fence: Dict[str, int] = {}
        # member -> newest journal-stamped liveness time (sender's clock),
        # and when THIS observer applied it (local clock): see
        # `ReplicatedCoordinator.lease_expired` for why expiry is judged
        # by the second.
        self.lease_t: Dict[str, int] = {}
        self.heard: Dict[str, int] = {}
        # victim -> (fence epoch, janitor) of the winning takeover.
        self.taken_by: Dict[str, Tuple[int, str]] = {}
        # Single-owner role (the reshard driver); epoch 1 is assigned at
        # construction without a journal round, deterministically.
        self.owner: Optional[str] = initial_owner
        self.owner_epoch: int = 1 if initial_owner is not None else 0
        self.clock = clock if clock is not None else (lambda: 0)
        # Subclass-record listeners, called with every applied record
        # (duplicates included — listeners must be idempotent).
        self.listeners: List[Callable[[Dict], None]] = []

    def on_apply(self, replica: str, index: int, command: Command) -> None:
        """`on_apply_hooks` hook on this site's control replica."""
        if (command.op is not OpType.PUT
                or not command.client_id.startswith(CONTROL_CLIENT_PREFIX)):
            return
        record = payload_of(command)
        kind = record.get("k")
        if kind == "lease":
            self._renew(record["o"], record["t"])
        elif kind == "fence":
            member, fe = record["o"], record["fe"]
            if fe > self.fence.get(member, 1):
                self.fence[member] = fe
            self._renew(member, record["t"])
        elif kind == "take":
            victim, fe = record["v"], record["fe"]
            if fe > self.fence.get(victim, 1):
                # First raise wins: a second janitor's take at the same
                # target epoch fails this comparison and is inert.
                self.fence[victim] = fe
                self.taken_by[victim] = (fe, record["by"])
            self._renew(record["by"], record["t"])
        elif kind == "claim":
            if record["e"] == self.owner_epoch + 1:
                self.owner_epoch = record["e"]
                self.owner = record["o"]
            self._renew(record["o"], record["t"])
        for listener in self.listeners:
            listener(record)

    def _renew(self, member: str, t: int) -> None:
        # Only a newer stamp counts as news: a replayed record re-applied
        # from index 0 does not make its member look alive.
        if t > self.lease_t.get(member, 0):
            self.lease_t[member] = t
            self.heard[member] = self.clock()

    def fence_of(self, member: str) -> int:
        return self.fence.get(member, 1)


class ControlGroup:
    """A dedicated consensus group carrying one coordinator family's
    journal, with a per-site materialized `ControlView`.

    The group's replicas are placed on per-site hosts that the
    coordinators are expected to share (`host_of`), so machine-granularity
    faults hit a coordinator and its local journal replica together."""

    def __init__(self, tag: str, sim, network, sites, protocol: str,
                 members: Optional[List[str]] = None,
                 initial_owner: Optional[str] = None) -> None:
        if protocol in MENCIUS_PROTOCOLS:
            # The journal needs a leader to converge on quickly; a
            # leaderless data plane still gets a leader-based control log
            # (heterogeneous stacks are the registry's whole point).
            protocol = "raft"
        self.tag = tag
        self.sites = list(sites)
        # The coordinator names this journal arbitrates between (used by
        # peers-watching-peers takeover loops).
        self.members = list(members) if members is not None else []
        prefix = f"{tag}_r"
        self.hosts: Dict[str, Host] = {
            site: Host(f"{tag}_h_{site}", sim, site=site) for site in sites
        }
        self.config = geo_cluster(
            sites, prefix=prefix,
            initial_leader=f"{prefix}_{sites[0]}",
            election_timeout_min=CONTROL_ELECTION_TIMEOUT[0],
            election_timeout_max=CONTROL_ELECTION_TIMEOUT[1],
            heartbeat_interval=CONTROL_HEARTBEAT,
            hosts={f"{prefix}_{site}": self.hosts[site] for site in sites},
        )
        replica_cls = PROTOCOLS[protocol]
        self.replicas = {
            name: replica_cls(name, sim, network, self.config)
            for name in self.config.names
        }
        self.views: Dict[str, ControlView] = {}
        for site in sites:
            view = ControlView(initial_owner=initial_owner,
                               clock=lambda: sim.now)
            self.views[site] = view
            self.replicas[f"{prefix}_{site}"].on_apply_hooks.append(
                view.on_apply)

    def replica_name(self, site: str) -> str:
        return f"{self.tag}_r_{site}"

    def view_of(self, site: str) -> ControlView:
        return self.views[site]

    def host_of(self, site: str) -> Host:
        return self.hosts[site]


class _PendingJournal:
    __slots__ = ("command", "timer", "attempts", "rejections")

    def __init__(self, command: Command, timer) -> None:
        self.command = command
        self.timer = timer
        self.attempts = 0
        self.rejections = 0


class ReplicatedCoordinator(Node):
    """Base class for coordinators whose state transitions are journaled
    through a `ControlGroup`.

    Provides: `journal()` (stable-seq at-most-once appends with retry),
    the lease tick (`on_lease_tick` in subclasses acts on the view), the
    expiry predicate standbys use, and failover accounting.  The node is
    placed on the same host as its site's control replica."""

    LEASE_INTERVAL = ms(80)
    LEASE_EXPIRY = ms(320)

    def __init__(self, name, sim, network, site: str, control: ControlGroup,
                 rng, metrics: Optional[MetricsRecorder] = None,
                 costs: Optional[NodeCosts] = None) -> None:
        super().__init__(name, sim, network, site=site, costs=costs,
                         host=control.host_of(site))
        self.control = control
        self.view = control.view_of(site)
        self.view.listeners.append(self._dispatch_control_record)
        self.rng = rng
        self.metrics = metrics
        self.ctl_retry = CONTROL_RETRY
        self._journal_pending: Dict[Tuple[str, int], _PendingJournal] = {}
        self._ctl_floor = AckFloor()
        # Failover accounting: how many times this coordinator adopted a
        # peer's duties, with the adoption sim-time and the peer taken
        # over (the figure's failover latency is the first takeover of the
        # killed coordinator minus the kill time).
        self.failovers = 0
        self.takeovers: List[Tuple[int, str]] = []
        self._lease_pending: Optional[_PendingJournal] = None
        self._lease_timer = self.timer("ctl-lease")
        self._arm_lease()

    # -- journaling ----------------------------------------------------------

    def journal(self, record: Dict) -> _PendingJournal:
        """Append `record` to the control log (at-most-once, retried until
        committed); returns the pending append.  The sequence number
        comes from stable storage, so a crash-restarted coordinator cannot
        reuse a slot and have a fresh record suppressed by its
        predecessor's dedup entry."""
        seq = self.stable.get("ctl_seq", 0) + 1
        self.stable["ctl_seq"] = seq
        value = Payload(dict(record, t=self.sim.now))
        command = Command(
            op=OpType.PUT, key=f"ctl:{self.name}", value=value,
            client_id=f"{CONTROL_CLIENT_PREFIX}{self.name}", seq=seq,
            value_size=len(value), acked_low_water=self._ctl_floor.floor)
        pending = _PendingJournal(command, self.timer(f"ctl-j{seq}"))
        self._journal_pending[command.request_id] = pending
        self._journal_send(pending)
        return pending

    def _journal_send(self, pending: _PendingJournal) -> None:
        if self._journal_pending.get(pending.command.request_id) is not pending:
            return
        pending.attempts += 1
        self.send(self.control.replica_name(self.site),
                  ClientRequest(command=pending.command))
        pending.timer.arm(
            self.ctl_retry.retry_delay(pending.attempts - 1, self.rng),
            lambda: self._journal_send(pending))

    def handle_control_reply(self, message) -> bool:
        """Consume a `ClientReply` for a journal append; returns whether
        the message belonged to the control path."""
        if not isinstance(message, ClientReply):
            return False
        client_id, seq = message.request_id
        if client_id != f"{CONTROL_CLIENT_PREFIX}{self.name}":
            return False
        pending = self._journal_pending.get(message.request_id)
        if pending is None:
            return True  # stale duplicate of an acked append
        if not message.ok:
            # No control leader yet (election in progress): back off.
            pending.rejections += 1
            pending.timer.arm(
                self.ctl_retry.backoff_delay(pending.rejections, self.rng),
                lambda: self._journal_send(pending))
            return True
        pending.timer.cancel()
        del self._journal_pending[message.request_id]
        self._ctl_floor.ack(seq)
        return True

    # -- leases / takeover ---------------------------------------------------

    def journal_lease(self) -> None:
        """Renew this member's liveness claim.  A renewal still pending is
        replaced, its seq acked in the dedup floor (nothing retries it),
        so at most one lease record retries while the group elects."""
        stale = self._lease_pending
        if stale is not None and self._journal_pending.pop(
                stale.command.request_id, None) is stale:
            stale.timer.cancel()
            self._ctl_floor.ack(stale.command.seq)
        self._lease_pending = self.journal({"k": "lease", "o": self.name})

    def _arm_lease(self) -> None:
        # Jittered so a site's coordinators don't tick in lockstep.
        delay = self.LEASE_INTERVAL + self.rng.randint(
            0, max(1, self.LEASE_INTERVAL // 4))
        self._lease_timer.arm(delay, self._lease_tick)

    def _lease_tick(self) -> None:
        self.on_lease_tick()
        self._arm_lease()

    def on_lease_tick(self) -> None:
        """Override: renew own lease, watch peers, act on expiry."""

    def lease_expired(self, member: str) -> bool:
        """Whether no renewal of `member`'s has reached this site for
        `LEASE_EXPIRY`, by this site's clock (a member that never
        journaled is not expired).  Judged by arrival, not by the
        renewal's own stamp, which is a control-log commit plus a WAN hop
        old when it lands: a far member's round runs 250-300 ms under
        load.  Renewals go out every tick (`journal_lease`), so they
        arrive about a tick apart however long the round is."""
        heard = self.view.heard.get(member)
        if heard is None:
            return False
        return self.sim.now - heard > self.LEASE_EXPIRY

    def owner_lease_expired(self) -> bool:
        """`lease_expired` for the single-owner role.  A fresh owner's
        claim record is itself a renewal, heard when it applies here, so
        the new owner gets one full expiry to land its first lease."""
        owner = self.view.owner
        return owner is not None and self.lease_expired(owner)

    def record_failover(self, victim: str) -> None:
        self.failovers += 1
        self.takeovers.append((self.sim.now, victim))
        if self.metrics is not None:
            self.metrics.incr("coordinator_failovers")

    # -- control-record dispatch ---------------------------------------------

    def _dispatch_control_record(self, record: Dict) -> None:
        # View listeners fire whenever the local control replica applies,
        # including while this coordinator is crashed; a dead coordinator
        # must not react (it catches up from the view after recovery).
        if self.alive:
            self.on_control_record(record)

    def on_control_record(self, record: Dict) -> None:
        """Override: react to an applied journal record (idempotently —
        recovery replay re-delivers the whole log)."""

    # -- lifecycle -----------------------------------------------------------

    def on_crash(self) -> None:
        # In-flight journal appends are volatile (their stable seqs are
        # not: a re-journaled transition gets a fresh slot).
        self._journal_pending.clear()
        self._lease_pending = None

    def on_recover(self) -> None:
        self._arm_lease()
