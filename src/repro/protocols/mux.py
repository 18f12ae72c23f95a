"""Host-multiplexed group transport: cross-group message coalescing.

The paper pins single-group throughput to the leader's per-message CPU
work (Figure 9c/10a), and our `NodeCosts` model reproduces that: every
message costs `per_message` before any real command work.  Real multi-raft
systems (TiKV, CockroachDB) amortize exactly that cost at the *store*
level — all raft groups on one machine share one transport that batches
messages per destination store and merges the groups' heartbeats into one
store-level beacon.

`GroupMux` is that store-level transport for one `Host`:

* every replica of every group on the host registers with the mux; the
  replica's `Node.send` hands replica->replica traffic to the mux instead
  of the network (`Node.mux` seam);
* outbound messages are buffered per destination host and flushed as ONE
  `HostEnvelope` per `flush_interval` tick.  The envelope charges the sum
  of the inner payloads plus a single envelope header to the destination
  host's CPU and both hosts' NICs, so `NodeCosts.per_message` is paid
  once per envelope instead of once per message (wire bytes keep their
  per-message framing; only the CPU header amortizes);
* colocated leaders' empty heartbeats are merged: each beacon interval the
  mux collects `beacon_info()` from every local leader whose protocol
  opted in (`beacon_mergeable`) and ships one `HostBeacon` per destination
  host; the receiving mux fans the beats out to the per-group follower
  timers (`on_host_beacon`).  Leaderless protocols (Mencius) never report
  beacon info and are thereby exempt — their skip/commit announcements
  already ride the coalesced envelopes.

Failure semantics are preserved at replica granularity: a blocked
(src, dst) replica link drops the inner message at enqueue exactly as the
raw network would at send; a crashed destination replica drops its items
at unpack; a crashed *host* (the new crash unit — `Host.crash` fails every
colocated replica and the mux together) loses the whole buffered flush,
like a machine dying with its socket buffers.  Random iid loss applies to
envelopes rather than inner messages (one TCP connection per host pair,
so loss is bursty across the messages sharing it — see DESIGN.md §7).

FIFO: the network is FIFO per (src, dst) pair, the buffers are FIFO lists,
and unpack preserves list order, so per-(src, dst, group) ordering through
the mux matches the unmuxed transport (property-tested in
tests/protocols/test_mux_properties.py).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from repro.protocols.messages import HostBeacon, HostEnvelope, MuxedMessage
from repro.sim.node import Host, Node, NodeCosts

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network


class MuxDirectory:
    """Shared routing state of one multiplexed deployment: which mux (host)
    serves each registered replica."""

    def __init__(self) -> None:
        self.muxes: Dict[str, "GroupMux"] = {}
        self.replica_to_mux: Dict[str, str] = {}
        self.group_of: Dict[str, int] = {}


class GroupMux(Node):
    """The shared transport of one host: many group replicas, one NIC,
    one coalescing buffer, one merged beacon."""

    def __init__(self, host: Host, sim, network: "Network",
                 directory: MuxDirectory,
                 flush_interval: int,
                 beacon_interval: Optional[int] = None,
                 costs: Optional[NodeCosts] = None,
                 metrics=None) -> None:
        super().__init__(f"mux.{host.name}", sim, network, site=host.site,
                         costs=costs, host=host)
        self.directory = directory
        self.flush_interval = flush_interval
        self.beacon_interval = beacon_interval
        self.metrics = metrics
        self.local: Dict[str, Node] = {}
        self._member_by_group: Dict[int, Node] = {}
        self._buffers: Dict[str, List[MuxedMessage]] = {}
        # Destinations with a non-empty buffer: flush walks only these, so
        # a host talking to 2 of 30 peers pays for 2, not 30.
        self._dirty: Set[str] = set()
        # Outbound route cache: dst replica -> (dst mux name or None for
        # colocated, group).  Replica placement never changes after
        # registration; `register` clears it anyway for safety.
        self._routes: Dict[str, tuple] = {}
        self._pending_beacons: Dict[str, HostBeacon] = {}
        self._flush_timer = self.timer("mux-flush")
        self._beacon_timer = self.timer("mux-beacon")
        directory.muxes[self.name] = self
        if beacon_interval is not None:
            self._beacon_timer.arm(beacon_interval, self._on_beacon_tick)

    # -- registration --------------------------------------------------------

    def register(self, replica: Node, group: int) -> None:
        """Place `replica` (a member of `group`) behind this mux."""
        if replica.host is not self.host:
            raise ValueError(
                f"{replica.name} lives on host {replica.host.name}, "
                f"not this mux's host {self.host.name}")
        self.local[replica.name] = replica
        self._member_by_group[group] = replica
        self.directory.replica_to_mux[replica.name] = self.name
        self.directory.group_of[replica.name] = group
        self._routes.clear()
        replica.mux = self

    # -- outbound ------------------------------------------------------------

    def enqueue(self, src: str, dst: str, message: Any) -> None:
        """Buffer a replica->replica message for the next flush tick."""
        network = self.network
        route = self._routes.get(dst)
        if route is None:
            directory = self.directory
            dst_mux = directory.replica_to_mux[dst]
            route = self._routes[dst] = (
                None if dst_mux == self.name else dst_mux,
                directory.group_of[dst])
        dst_mux, group = route
        if dst_mux is None:
            # Colocated endpoints: nothing to amortize, deliver locally.
            network.send(src, dst, message)
            return
        if network._blocked and network.link_blocked(src, dst):
            # Mirror the raw transport: a blocked link drops at send time.
            network.messages_sent += 1
            network.messages_dropped += 1
            return
        buffer = self._buffers.get(dst_mux)
        if buffer is None:
            # One list per destination host for the mux's lifetime: flush
            # empties it in place instead of reallocating per tick.
            buffer = self._buffers[dst_mux] = []
        if not buffer:
            self._dirty.add(dst_mux)
        buffer.append(MuxedMessage(src=src, dst=dst, group=group,
                                   payload=message))
        if not self._flush_timer.armed:
            self._flush_timer.arm(self.flush_interval, self.flush)

    def flush(self) -> None:
        """Ship one envelope per destination host with everything buffered."""
        if not self.alive:
            return
        self._flush_timer.cancel()
        buffers = self._buffers
        beacons, self._pending_beacons = self._pending_beacons, {}
        dirty = self._dirty
        targets = sorted(dirty.union(beacons)) if beacons else sorted(dirty)
        dirty.clear()
        muxes = self.directory.muxes
        src_host = self.host.name
        for dst_mux in targets:
            buffer = buffers.get(dst_mux)
            if buffer:
                items = tuple(buffer)
                buffer.clear()
            else:
                items = ()
            envelope = HostEnvelope(src_host, muxes[dst_mux].host.name,
                                    items, beacons.get(dst_mux))
            self._count("coalesce_envelopes")
            self._count("coalesce_messages", len(items))
            if envelope.beacon is not None:
                self._count("coalesce_beacons")
                self._count("coalesce_beacon_beats", len(envelope.beacon.beats))
            self.network.send(self.name, dst_mux, envelope)

    # -- beacons -------------------------------------------------------------

    def beacon_covers(self, src: str, peer: str) -> bool:
        """Whether the merged host beacon will reach `peer`, so `src` (a
        colocated leader) may suppress its empty heartbeat to it.  False
        for unmuxed or colocated peers (they keep real heartbeats) and for
        blocked links (a partitioned leader must not keep resetting its
        followers' timers through the beacon)."""
        if self.beacon_interval is None:
            return False
        peer_mux = self.directory.replica_to_mux.get(peer)
        if peer_mux is None or peer_mux == self.name:
            return False
        return not self.network.link_blocked(src, peer)

    def _on_beacon_tick(self) -> None:
        for name in sorted(self.local):
            replica = self.local[name]
            if not replica.alive:
                continue
            info = getattr(replica, "beacon_info", lambda: None)()
            if info is None:
                continue
            leader, term = info
            group = self.directory.group_of[name]
            for peer in getattr(replica, "peers", ()):
                if not self.beacon_covers(name, peer):
                    continue
                dst_mux = self.directory.replica_to_mux[peer]
                beacon = self._pending_beacons.setdefault(
                    dst_mux, HostBeacon(src_host=self.host.name))
                beacon.beats[group] = (leader, term)
        if self._pending_beacons and not self._flush_timer.armed:
            self._flush_timer.arm(self.flush_interval, self.flush)
        self._beacon_timer.arm(self.beacon_interval, self._on_beacon_tick)

    # -- inbound -------------------------------------------------------------

    def on_message(self, src: str, message: Any) -> None:
        if not isinstance(message, HostEnvelope):
            return
        local = self.local
        for item in message.items:
            replica = local.get(item.dst)
            if replica is None or not replica.alive:
                # Network stats count wire transmissions (the envelope
                # was sent and delivered); the discarded inner item is
                # mux bookkeeping, like the raw transport dropping at a
                # dead process's doorstep.
                self._count("coalesce_items_dropped")
                continue
            replica.deliver_direct(item.src, item.payload)
        if message.beacon is not None:
            for group in sorted(message.beacon.beats):
                leader, term = message.beacon.beats[group]
                replica = self._member_by_group.get(group)
                if replica is None or not replica.alive or replica.name == leader:
                    continue
                on_beacon = getattr(replica, "on_host_beacon", None)
                if on_beacon is not None:
                    on_beacon(leader, term)

    # -- lifecycle -----------------------------------------------------------

    def on_crash(self) -> None:
        # The machine died with its socket buffers: everything queued for
        # the next flush is gone.  Nothing was transmitted, so nothing
        # counts against the network's sent/dropped pair — the loss shows
        # up in the mux's own item counter.
        dropped = sum(len(items) for items in self._buffers.values())
        self._count("coalesce_items_dropped", dropped)
        self._buffers.clear()
        self._dirty.clear()
        self._pending_beacons.clear()
        self._flush_timer.cancel()
        self._beacon_timer.cancel()

    def on_recover(self) -> None:
        if self.beacon_interval is not None:
            self._beacon_timer.arm(self.beacon_interval, self._on_beacon_tick)

    # -- accounting ----------------------------------------------------------

    def _count(self, name: str, by: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, by)
