"""Network model: latency + jitter + NIC serialization + loss + partitions.

Message delivery time from node A to node B is::

    depart  = max(now, egress_free[host(A)]) + size / bandwidth
    arrive  = depart + one_way_latency(site(A), site(B)) * (1 + jitter)

The egress queue (`egress_free`) is what makes a leader's NIC a bottleneck
when it must replicate 4 KB entries to four followers (Figure 10b); the
latency term is the WAN cost (Figures 9a/9b/10c/10d).  The NIC belongs to
the *host* (`repro.sim.node.Host`): nodes sharing a host share its egress
queue.  With the default one-private-host-per-node placement this is the
original per-node NIC (`egress_free` is `Egress.free_at`; see `Link`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.sim.errors import UnknownNodeError
from repro.sim.node import payload_size_bytes
from repro.sim.rng import SplitRng
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Simulator
    from repro.sim.node import Node


@dataclass
class NetworkConfig:
    """Knobs for the network model.

    bandwidth_bytes_per_sec: egress NIC rate per node.  The paper's instances
        have a 750 Mbps NIC; the default is scaled down 20x in line with the
        CPU scale model (see DESIGN.md) so saturation happens at simulable
        request rates while control traffic stays effectively free.
    site_bandwidth_bytes_per_sec: optional shared WAN-egress rate per *site*
        (a regional uplink all nodes in the site contend on).  `None` (the
        default) disables the shared link, preserving the single-group
        model where each node's NIC is the only serialization point.  The
        sharded experiments enable it so that co-locating many shard
        leaders in one region saturates that region's uplink (the Figure
        10b bottleneck reproduced at shard granularity).
    loss_rate: iid drop probability per message.
    fifo: per-(src,dst) in-order delivery.  Defaults to True: the paper's
        systems all speak TCP, which is FIFO per connection.  Set False to
        model an adversarial datagram network (the formal specs in
        `repro.specs` already cover arbitrary reordering by modelling
        messages as sets).
    """

    bandwidth_bytes_per_sec: float = 750e6 / 8 / 20.0
    site_bandwidth_bytes_per_sec: Optional[float] = None
    loss_rate: float = 0.0
    fifo: bool = True


class Egress:
    """One serialization point (a host's NIC, a site's uplink): the time
    until which it is committed, shared by every `Link` crossing it."""

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at = 0


class Link:
    """What no single message changes about a directed (src, dst) pair,
    resolved on its first send — `uplink` is None when unconfigured or
    the pair stays inside one site — plus the pair's FIFO high-water
    mark, the one field a send updates."""

    __slots__ = ("node", "local", "base", "nic", "uplink", "last_arrival")

    def __init__(self, node: "Node", local: bool, base: int, nic: Egress,
                 uplink: Optional[Egress]) -> None:
        self.node = node
        self.local = local
        self.base = base
        self.nic = nic
        self.uplink = uplink
        self.last_arrival = -1


class Network:
    """Delivers messages between registered nodes."""

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        rng: Optional[SplitRng] = None,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config or NetworkConfig()
        self.rng_root = rng or SplitRng(0)
        self.rng = self.rng_root.stream("network")
        self._nodes: Dict[str, "Node"] = {}
        # host name -> its NIC; site name -> its uplink (created on the
        # first cross-site send when a site bandwidth is configured).
        self._nics: Dict[str, Egress] = {}
        self._uplinks: Dict[str, Egress] = {}
        # src name -> dst name -> the resolved link.  Sites, hosts and the
        # topology are fixed once a name is registered, so a send is two
        # dict hits plus arithmetic on the records the link points at.
        self._links: Dict[str, Dict[str, Link]] = {}
        # Per-send constants, resolved once: the scheduler entry point and
        # the delivery callback (a bound method is re-created on every
        # attribute access otherwise — one allocation per send), and the
        # structural parts of the model (bandwidths, FIFO, jitter width,
        # the local hop).  `config.loss_rate` alone is read per send:
        # fault-injection tests turn loss on and off mid-run.
        self._schedule = sim.schedule
        self._deliver_cb = self._deliver
        self._random = self.rng.random
        self._us_per_byte = 1_000_000 / self.config.bandwidth_bytes_per_sec
        self._site_bandwidth = self.config.site_bandwidth_bytes_per_sec
        self._fifo = self.config.fifo
        self._jitter = topology.jitter_fraction
        self._local_us = topology.local_us
        self._blocked: Set[Tuple[str, str]] = set()
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # -- registration ------------------------------------------------------

    def register(self, node: "Node") -> None:
        name = node.name
        if name in self._nodes:
            # The name is re-bound (possibly to another host or site):
            # every link from or to it resolves again on its next send.
            self._links.pop(name, None)
            for links in self._links.values():
                links.pop(name, None)
        self._nodes[name] = node
        self._nics.setdefault(node.host.name, Egress())

    def node(self, name: str) -> "Node":
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    @property
    def node_names(self):
        return list(self._nodes)

    def _resolve(self, src: str, dst: str) -> Link:
        """Build the (src, dst) link on the pair's first send."""
        source, node = self._nodes[src], self.node(dst)
        local = src == dst
        uplink = None
        if self._site_bandwidth is not None and source.site != node.site:
            uplink = self._uplinks.setdefault(source.site, Egress())
        link = Link(node, local,
                    0 if local else self.topology.latency(source.site, node.site),
                    self._nics[source.host.name], uplink)
        self._links.setdefault(src, {})[dst] = link
        return link

    # -- fault injection ----------------------------------------------------

    def block(self, src: str, dst: str, bidirectional: bool = True) -> None:
        """Drop all traffic from src to dst (and back, by default)."""
        self._blocked.add((src, dst))
        if bidirectional:
            self._blocked.add((dst, src))

    def unblock(self, src: str, dst: str, bidirectional: bool = True) -> None:
        self._blocked.discard((src, dst))
        if bidirectional:
            self._blocked.discard((dst, src))

    def partition(self, group_a, group_b) -> None:
        """Cut every link between the two groups."""
        for a in group_a:
            for b in group_b:
                self.block(a, b)

    def heal(self) -> None:
        """Remove all partitions/blocks."""
        self._blocked.clear()

    def isolate(self, name: str) -> None:
        """Cut `name` off from every other node."""
        for other in self._nodes:
            if other != name:
                self.block(name, other)

    # -- delivery ------------------------------------------------------------

    def send(self, src: str, dst: str, message) -> None:
        """Send `message` from node `src` to node `dst`.

        Messages to unknown destinations raise; messages across blocked links
        or hit by random loss are silently dropped (that is the point).
        """
        try:
            link = self._links[src][dst]
        except KeyError:
            link = self._resolve(src, dst)
        self.messages_sent += 1
        if self._blocked and (src, dst) in self._blocked:
            self.messages_dropped += 1
            return
        loss_rate = self.config.loss_rate
        if loss_rate > 0 and self._random() < loss_rate:
            self.messages_dropped += 1
            return

        # The per-message size memo (`_size`, protocols.messages), read
        # without a call once warm — every send of a fan-out but the first.
        size = getattr(message, "_size", -1)
        if size < 0:
            size = payload_size_bytes(message)
        self.bytes_sent += size

        if link.local:
            self._schedule(self._local_us, self._deliver_cb, src, link.node,
                           message)
            return

        now = self.sim._now
        nic = link.nic
        depart = nic.free_at
        if depart < now:
            depart = now
        depart += int(size * self._us_per_byte)
        nic.free_at = depart
        uplink = link.uplink
        if uplink is not None:
            # The message also serializes through the site's shared uplink,
            # after it leaves the node's NIC.
            if depart < uplink.free_at:
                depart = uplink.free_at
            depart += int(size / self._site_bandwidth * 1_000_000)
            uplink.free_at = depart

        jitter = self._jitter
        # jitter * random() draws the exact value uniform(0, jitter) would
        # (same underlying random() call), minus the method overhead.
        arrive = depart + (int(link.base * (1.0 + jitter * self._random()))
                           if jitter > 0 else link.base)
        if self._fifo:
            if arrive <= link.last_arrival:
                arrive = link.last_arrival + 1
            link.last_arrival = arrive
        self._schedule(arrive - now, self._deliver_cb, src, link.node, message)

    def _deliver(self, src: str, node: "Node", message) -> None:
        if not node.alive:
            self.messages_dropped += 1
            return
        node._receive(src, message)

    def egress_backlog_us(self, name: str) -> int:
        """How far in the future the node's (host's) NIC is committed.
        Accepts a node name or a host name."""
        node = self._nodes.get(name)
        nic = self._nics.get(node.host.name if node is not None else name)
        return max(0, nic.free_at - self.sim.now) if nic is not None else 0

    def link_blocked(self, src: str, dst: str) -> bool:
        """Whether traffic src -> dst is currently cut (partition/block).
        The mux consults this per inner message so coalescing preserves
        per-replica partition semantics."""
        return (src, dst) in self._blocked

    def site_egress_backlog_us(self, site: str) -> int:
        """How far in the future the site's shared uplink is committed."""
        uplink = self._uplinks.get(site)
        return max(0, uplink.free_at - self.sim.now) if uplink is not None else 0
