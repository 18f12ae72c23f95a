"""Process model.

A `Host` is a single-core machine: one CPU queue and one NIC.  A `Node` is
a process placed on a host — every received message is handled by
`on_message`, and handling costs CPU time (`NodeCosts`) charged to the
host's queue.  Messages queue behind each other on the host's CPU, which is
exactly how a consensus leader saturates in the paper's Figure 9c /
Figure 10a experiments.

By default every node gets a private host (one process per machine — the
paper's deployment), so the single-group model is unchanged.  Multiplexed
deployments (`repro.protocols.mux`, `repro.shard`) place many group
replicas on one shared host: they then contend for one CPU and one NIC,
and the machine — not the process — becomes the crash unit (`Host.crash`
fails every node on it together, the way a real box takes all its raft
groups down at once).

Nodes can crash (lose volatile state, stop timers, drop in-flight work) and
recover (restart from stable storage).  Timers are cancellable handles that
never fire on a crashed node or across an incarnation boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.sim.errors import NodeStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event, Simulator
    from repro.sim.network import Network


# Per-type dispatch caches: whether a message class defines size_bytes /
# command_count.  The getattr probe runs once per *class*, not per call —
# the hot path is a dict hit on `type(message)`.  Message classes memoize
# the computed size per *instance* (see protocols.messages), so the three
# charging sites (node CPU cost, network size estimate, mux envelope)
# all read one cached number.
_HAS_SIZE: Dict[type, bool] = {}
_HAS_COUNT: Dict[type, bool] = {}
# Combined (has_size, has_count) shape per type for `NodeCosts.cost`, the
# one site that needs both answers: one dict hit instead of two.
_COST_SHAPE: Dict[type, tuple] = {}


def payload_size_bytes(message: Any) -> int:
    """Wire size of an arbitrary message: its `size_bytes()` if it has
    one, else a small constant header.  THE canonical fallback — the CPU
    model, the network's size estimate, and the mux envelope all charge
    through here so a batch costs exactly what its parts would."""
    tp = type(message)
    has = _HAS_SIZE.get(tp)
    if has is None:
        has = callable(getattr(message, "size_bytes", None))
        _HAS_SIZE[tp] = has
    return int(message.size_bytes()) if has else 64


def payload_command_count(message: Any) -> float:
    """Command-work units a message carries (`command_count()`, else 0)."""
    tp = type(message)
    has = _HAS_COUNT.get(tp)
    if has is None:
        has = callable(getattr(message, "command_count", None))
        _HAS_COUNT[tp] = has
    return float(message.command_count()) if has else 0.0


@dataclass
class NodeCosts:
    """CPU cost model, in microseconds.

    `per_message` is charged for every handled message, `per_command` for
    every unit of command work a message carries (so batching amortizes
    headers but not real work), and `per_byte` scales with payload so 4 KB
    entries cost more than 8 B entries (Figure 10a vs 10b).  The defaults
    are the scaled budget described in DESIGN.md (~20x slower than the
    paper's m4.xlarge).

    Unit weights mirror where real systems spend CPU: client-facing request
    handling (connection, parse, session) is ~3 units, a forwarded command
    ~1 unit, and a replicated log entry ~0.25 units (etcd's follower append
    path is far cheaper than its client path).
    """

    per_message: int = 30
    per_command: int = 300
    per_byte: float = 0.01

    def cost(self, message: Any) -> int:
        tp = type(message)
        shape = _COST_SHAPE.get(tp)
        if shape is None:
            shape = _COST_SHAPE[tp] = (
                callable(getattr(message, "size_bytes", None)),
                callable(getattr(message, "command_count", None)),
                hasattr(tp, "_cpu"),
            )
        if shape[2]:
            # Per-object memo: the same message fanned out to several
            # peers is costed once per cost table.  Guarded by identity on
            # the `NodeCosts` instance — a cluster shares one table, but a
            # message crossing tables (reshard traffic) recomputes.
            memo = message._cpu
            if memo is not None and memo[0] is self:
                return memo[1]
        size = int(message.size_bytes()) if shape[0] else 64
        count = float(message.command_count()) if shape[1] else 0.0
        value = int(self.per_message + self.per_command * count + self.per_byte * size)
        if shape[2]:
            message._cpu = (self, value)
        return value


class Host:
    """A single-core machine: the CPU queue (and NIC identity) shared by
    every node placed on it.

    The network serializes egress per host (`Host.name` is the NIC key), so
    eight colocated shard leaders on one host share one uplink the way
    eight raft groups in one TiKV/Cockroach store share one machine.
    """

    def __init__(self, name: str, sim: "Simulator", site: Optional[str] = None) -> None:
        self.name = name
        self.sim = sim
        self.site = site if site is not None else name
        self.nodes: List["Node"] = []
        self._cpu_free = 0
        self.cpu_busy_us = 0

    def attach(self, node: "Node") -> None:
        self.nodes.append(node)

    def run_for(self, cost: int) -> int:
        """Queue `cost` microseconds of CPU work; returns completion time."""
        start = max(self.sim.now, self._cpu_free)
        done = start + cost
        self._cpu_free = done
        self.cpu_busy_us += cost
        return done

    def cpu_backlog_us(self) -> int:
        """How much queued CPU work the host has right now."""
        return max(0, self._cpu_free - self.sim.now)

    def node_recovered(self, node: "Node") -> None:
        """A node restarted: its queued work was dropped on crash, so free
        the CPU it would have consumed — unless other live nodes share the
        host and their queued work is still pending."""
        if all(n is node or not n.alive for n in self.nodes):
            self._cpu_free = self.sim.now

    # -- machine-granularity failures ---------------------------------------

    @property
    def alive(self) -> bool:
        return any(node.alive for node in self.nodes)

    def crash(self) -> None:
        """Fail-stop the machine: every node on it crashes together."""
        for node in self.nodes:
            if node.alive:
                node.crash()

    def recover(self) -> None:
        """Restart the machine: every crashed node on it recovers."""
        for node in self.nodes:
            if not node.alive:
                node.recover()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name}@{self.site}, {len(self.nodes)} nodes)"


class Timer:
    """A cancellable, re-armable timer bound to a node incarnation.

    Re-arming is lazy: the timer tracks its intended deadline, and an
    in-flight queue event that fires at or before the new deadline is
    *kept* — when it fires early it just reschedules itself for the
    remaining gap.  A timer that is pushed out on every message (the
    election timeout, reset per AppendEntries) therefore costs one queue
    event per timeout *window*, not one cancelled entry per reset, which
    is what kept the old event queue full of dead heartbeat entries.
    """

    __slots__ = ("node", "name", "_event", "_deadline", "_callback",
                 "_incarnation")

    def __init__(self, node: "Node", name: str) -> None:
        self.node = node
        self.name = name
        self._event: Optional["Event"] = None
        self._deadline = -1  # -1 = disarmed
        self._callback: Optional[Callable[[], None]] = None
        self._incarnation = node.incarnation

    def arm(self, delay: int, callback: Callable[[], None]) -> None:
        """(Re)arm the timer `delay` microseconds from now."""
        node = self.node
        deadline = node.sim.now + int(delay)
        self._incarnation = node.incarnation
        self._deadline = deadline
        self._callback = callback
        event = self._event
        if event is not None:
            if not event.cancelled and event.time <= deadline:
                # The queued event fires no later than the new deadline:
                # keep it.  If it wakes early it sees now < deadline and
                # sleeps again for the gap (see `_fire`).
                return
            event.cancel()
        self._event = node.sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        self._deadline = -1
        self._callback = None
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def armed(self) -> bool:
        return self._deadline >= 0

    def _fire(self) -> None:
        self._event = None
        node = self.node
        if not node.alive or node.incarnation != self._incarnation:
            self._deadline = -1
            self._callback = None
            return
        deadline = self._deadline
        if deadline < 0:
            return
        now = node.sim.now
        if now < deadline:
            # Deadline was extended since this event was queued: sleep for
            # the remaining gap instead of firing.
            self._event = node.sim.schedule(deadline - now, self._fire)
            return
        callback = self._callback
        self._deadline = -1
        self._callback = None
        callback()


class Node:
    """Base class for simulated processes (replicas, clients)."""

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        network: "Network",
        site: Optional[str] = None,
        costs: Optional[NodeCosts] = None,
        host: Optional[Host] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.network = network
        self.site = site if site is not None else name
        self.costs = costs or NodeCosts()
        # Request-lifecycle observability (repro.obs.Observability); None
        # (the default) makes every `obs_phase` call one branch.
        self.obs = None
        self.alive = True
        self.incarnation = 0
        self.stable: Dict[str, Any] = {}  # survives crashes
        self.host = host if host is not None else Host(name, sim, site=self.site)
        self.host.attach(self)
        # Multiplexed deployments: a `GroupMux` transport that intercepts
        # sends to replicas it covers (None = talk to the network directly).
        self.mux = None
        # The dispatch callback `_receive` schedules for every arriving
        # message, resolved once: attribute access re-creates a bound
        # method per call otherwise.
        self._handle_cb = self._handle
        network.register(self)

    # -- messaging -----------------------------------------------------------

    def send(self, dst: str, message: Any) -> None:
        """Send a message; does nothing if this node is crashed."""
        if not self.alive:
            return
        mux = self.mux
        if mux is not None and dst in mux.directory.replica_to_mux:
            mux.enqueue(self.name, dst, message)
            return
        self.network.send(self.name, dst, message)

    def _receive(self, src: str, message: Any) -> None:
        """Called by the network on arrival: queue the message on the CPU."""
        if not self.alive:
            return
        costs = self.costs
        # A fanned-out message already costed by an earlier receiver under
        # the same cost table carries the answer (see `NodeCosts.cost`).
        memo = getattr(message, "_cpu", None)
        if memo is not None and memo[0] is costs:
            cost = memo[1]
        else:
            cost = costs.cost(message)
        sim = self.sim
        host = self.host
        now = sim._now
        start = host._cpu_free
        if start < now:
            start = now
        done = start + cost
        host._cpu_free = done
        host.cpu_busy_us += cost
        sim.schedule(done - now, self._handle_cb, src, message,
                     self.incarnation)

    def _handle(self, src: str, message: Any, incarnation: int) -> None:
        if not self.alive or self.incarnation != incarnation:
            return
        self.on_message(src, message)

    def deliver_direct(self, src: str, message: Any) -> None:
        """Deliver a message whose CPU cost was already charged to the host
        (the mux charges one envelope for many inner messages)."""
        if not self.alive:
            return
        self.on_message(src, message)

    def on_message(self, src: str, message: Any) -> None:
        """Override in subclasses."""
        raise NotImplementedError

    def obs_phase(self, trace: Optional[str], phase: str) -> None:
        """Record a request-lifecycle phase timestamp (no-op unless an
        `Observability` collector is installed and the command is traced)."""
        obs = self.obs
        if obs is not None and trace is not None:
            obs.phase(self.sim.now, trace, phase, self.name)

    # -- timers ---------------------------------------------------------------

    def timer(self, name: str) -> Timer:
        return Timer(self, name)

    def after(self, delay: int, callback: Callable[[], None]) -> Timer:
        """One-shot convenience: arm an anonymous timer."""
        timer = Timer(self, f"after@{self.sim.now}")
        timer.arm(delay, callback)
        return timer

    # -- lifecycle --------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: volatile state is lost, pending work is dropped."""
        if not self.alive:
            raise NodeStateError(f"{self.name} is already crashed")
        self.alive = False
        self.incarnation += 1
        self.on_crash()

    def recover(self) -> None:
        """Restart from stable storage."""
        if self.alive:
            raise NodeStateError(f"{self.name} is not crashed")
        self.alive = True
        self.incarnation += 1
        self.host.node_recovered(self)
        self.on_recover()

    def on_crash(self) -> None:
        """Override for protocol-specific crash bookkeeping."""

    def on_recover(self) -> None:
        """Override: reload volatile state from `self.stable`, re-arm timers."""

    # -- introspection ------------------------------------------------------------

    def cpu_backlog_us(self) -> int:
        """How much queued CPU work the node's host has right now."""
        return self.host.cpu_backlog_us()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"{type(self).__name__}({self.name}@{self.site}, {state})"
