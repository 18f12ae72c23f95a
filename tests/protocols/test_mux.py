"""GroupMux transport: envelope cost model, coalescing, beacon plumbing.

The envelope cost tests pin the satellite bugfix: messages without
`size_bytes`/`command_count` fall back to 64 B / 0 commands in
`NodeCosts.cost`, and `HostEnvelope` implements BOTH so a batch charges
the sum of its inner payloads plus ONE header — undercharging nothing,
and amortizing exactly (k-1) `per_message` units.
"""

import pytest

from repro.metrics.recorder import MetricsRecorder
from repro.protocols.base import ReplicaBase
from repro.protocols.config import ClusterConfig
from repro.protocols.messages import (
    HEADER_BYTES,
    AppendEntries,
    HostBeacon,
    HostEnvelope,
    MuxedMessage,
    payload_command_count,
    payload_size_bytes,
)
from repro.protocols.mux import GroupMux, MuxDirectory
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Host, Node, NodeCosts
from repro.sim.topology import symmetric_lan


class Bare:
    """A message with neither size_bytes nor command_count."""


class Sized:
    def __init__(self, size, count):
        self._size, self._count = size, count

    def size_bytes(self):
        return self._size

    def command_count(self):
        return self._count


# ---------------------------------------------------------------------------
# Envelope cost model (the satellite bugfix, pinned)
# ---------------------------------------------------------------------------


def wrap(*payloads):
    return HostEnvelope(src_host="h0.a", dst_host="h0.b", items=[
        MuxedMessage(src="s", dst="d", group=0, payload=p) for p in payloads
    ])


def test_envelope_size_falls_back_to_64_bytes_per_bare_message():
    env = wrap(Bare(), Bare(), Bare())
    assert env.size_bytes() == HEADER_BYTES + 3 * 64
    assert env.command_count() == 0.0


def test_envelope_sums_inner_sizes_plus_one_header():
    env = wrap(Sized(100, 2.0), Sized(4096, 0.25), Bare())
    assert env.size_bytes() == HEADER_BYTES + 100 + 4096 + 64
    assert env.command_count() == pytest.approx(2.25)
    assert env.message_count() == 3


def test_envelope_cost_amortizes_exactly_the_headers():
    # per_byte=0 isolates the header term: batching three messages into
    # one envelope saves exactly two per_message units — and nothing of
    # the real command work.
    costs = NodeCosts(per_message=30, per_command=300, per_byte=0.0)
    payloads = [Sized(100, 1.0), Sized(200, 0.5), Bare()]
    separate = sum(costs.cost(p) for p in payloads)
    batched = costs.cost(wrap(*payloads))
    assert separate - batched == 2 * costs.per_message


def test_envelope_counts_beacon_bytes():
    beacon = HostBeacon(src_host="h0.a", beats={0: ("r0", 1), 1: ("r1", 1)})
    env = wrap(Bare())
    env.beacon = beacon
    assert env.size_bytes() == HEADER_BYTES + 64 + beacon.size_bytes()
    assert env.message_count() == 2


def test_payload_helpers_match_nodecosts_fallbacks():
    costs = NodeCosts(per_message=0, per_command=1, per_byte=1.0)
    bare = Bare()
    assert payload_size_bytes(bare) == 64
    assert payload_command_count(bare) == 0.0
    assert costs.cost(bare) == 64  # the fallback NodeCosts itself uses
    assert payload_size_bytes(Sized(10, 3.0)) == 10
    assert payload_command_count(Sized(10, 3.0)) == 3.0


def test_real_append_entries_rides_with_its_own_sizes():
    msg = AppendEntries(term=1, leader="l", prev_index=-1, prev_term=-1,
                        entries=[], leader_commit=-1)
    env = wrap(msg)
    assert env.size_bytes() == HEADER_BYTES + msg.size_bytes()
    assert env.command_count() == msg.command_count()


# ---------------------------------------------------------------------------
# The transport itself
# ---------------------------------------------------------------------------


class Member(Node):
    """A minimal muxed endpoint."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


def build_pair(flush_interval=500, beacon_interval=None):
    """Two hosts, two groups, one member of each group on each host."""
    sim = Simulator()
    network = Network(sim, symmetric_lan(2))
    metrics = MetricsRecorder()
    directory = MuxDirectory()
    hosts, muxes, members = {}, {}, {}
    for si, site in enumerate(("s0", "s1")):
        host = Host(f"h0.{site}", sim, site=site)
        hosts[site] = host
        mux = GroupMux(host, sim, network, directory,
                       flush_interval=flush_interval,
                       beacon_interval=beacon_interval, metrics=metrics)
        muxes[site] = mux
        for group in (0, 1):
            member = Member(f"g{group}_r_{site}", sim, network, site=site,
                            host=host)
            mux.register(member, group)
            members[(group, site)] = member
    return sim, network, metrics, muxes, members


def test_coalesces_many_messages_into_one_envelope():
    sim, network, metrics, muxes, members = build_pair()
    for group in (0, 1):
        for i in range(3):
            members[(group, "s0")].send(f"g{group}_r_s1", f"m{group}.{i}")
    sim.run()
    # All six inner messages crossed in ONE envelope.
    assert metrics.counters["coalesce_envelopes"] == 1
    assert metrics.counters["coalesce_messages"] == 6
    for group in (0, 1):
        got = [m for _, m in members[(group, "s1")].received]
        assert got == [f"m{group}.0", f"m{group}.1", f"m{group}.2"]


def test_same_host_messages_bypass_the_envelope():
    sim, network, metrics, muxes, members = build_pair()
    members[(0, "s0")].send("g1_r_s0", "local")
    sim.run()
    assert metrics.counters.get("coalesce_envelopes", 0) == 0
    assert members[(1, "s0")].received == [("g0_r_s0", "local")]


def test_unmuxed_destinations_go_direct():
    sim, network, metrics, muxes, members = build_pair()
    outsider = Member("client", sim, network, site="s1")
    members[(0, "s0")].send("client", "hi")
    sim.run()
    assert outsider.received == [("g0_r_s0", "hi")]
    assert metrics.counters.get("coalesce_envelopes", 0) == 0


def test_blocked_replica_link_drops_inner_message_only():
    sim, network, metrics, muxes, members = build_pair()
    network.block("g0_r_s0", "g0_r_s1")
    members[(0, "s0")].send("g0_r_s1", "blocked")
    members[(1, "s0")].send("g1_r_s1", "fine")
    sim.run()
    assert members[(0, "s1")].received == []
    assert members[(1, "s1")].received == [("g1_r_s0", "fine")]
    assert network.messages_dropped == 1


def test_crashed_destination_drops_at_unpack():
    sim, network, metrics, muxes, members = build_pair()
    members[(0, "s1")].crash()
    members[(0, "s0")].send("g0_r_s1", "late")
    members[(1, "s0")].send("g1_r_s1", "fine")
    sim.run()
    assert members[(0, "s1")].received == []
    assert members[(1, "s1")].received == [("g1_r_s0", "fine")]
    # The envelope itself was transmitted fine; the discarded item is mux
    # bookkeeping, not a network drop (sent/dropped stay coherent).
    assert metrics.counters["coalesce_items_dropped"] == 1
    assert network.messages_dropped == 0


def test_item_for_unknown_or_crashed_replica_is_counted_and_reaches_no_handler():
    sim, network, metrics, muxes, members = build_pair()
    crashed = members[(1, "s1")]
    crashed.crash()
    delivered = []
    crashed.deliver_direct = lambda src, message: delivered.append(message)
    muxes["s1"].on_message("mux.h0.s0", HostEnvelope("h0.s0", "h0.s1", items=(
        MuxedMessage(src="g0_r_s0", dst="nobody", group=0, payload="lost"),
        MuxedMessage(src="g1_r_s0", dst="g1_r_s1", group=1, payload="late"),
        MuxedMessage(src="g0_r_s0", dst="g0_r_s1", group=0, payload="fine"),
    )))
    assert metrics.counters["coalesce_items_dropped"] == 2
    assert crashed.received == [] and delivered == []
    assert members[(0, "s1")].received == [("g0_r_s0", "fine")]


def test_handler_registered_after_mux_registration_is_the_one_reached():
    """Unpack goes through the replica's own dispatch, so the handler an
    enveloped message reaches is whatever is registered when it arrives."""
    sim, network, metrics, muxes, members = build_pair()
    names = {"late_s0": "s0", "late_s1": "s1"}
    config = ClusterConfig(replicas=names, hosts={
        name: muxes[site].host for name, site in names.items()})
    replicas = {name: ReplicaBase(name, sim, network, config)
                for name in names}
    for name, site in names.items():
        muxes[site].register(replicas[name], 2)
    early, late = [], []
    receiver = replicas["late_s1"]
    receiver.register_handler(Sized, lambda src, msg: early.append(src))
    replicas["late_s0"].send("late_s1", Sized(8, 0.0))
    sim.run()
    receiver.register_handler(Sized, lambda src, msg: late.append(src))
    replicas["late_s0"].send("late_s1", Sized(8, 0.0))
    sim.run()
    assert (early, late) == (["late_s0"], ["late_s0"])
    assert metrics.counters["coalesce_envelopes"] == 2


def test_host_crash_loses_the_buffered_flush():
    sim, network, metrics, muxes, members = build_pair(flush_interval=500)
    members[(0, "s0")].send("g0_r_s1", "doomed")
    # The machine dies before the flush tick: the buffer dies with it —
    # nothing was transmitted, so it counts as a lost item, not a network
    # drop.
    muxes["s0"].host.crash()
    sim.run()
    assert members[(0, "s1")].received == []
    assert metrics.counters["coalesce_items_dropped"] == 1
    assert network.messages_dropped == 0
    assert metrics.counters.get("coalesce_envelopes", 0) == 0


def test_flush_charges_one_envelope_cost_to_the_receiving_host():
    sim, network, metrics, muxes, members = build_pair()
    for i in range(4):
        members[(0, "s0")].send("g0_r_s1", Sized(100, 0.0))
    sim.run()
    costs = muxes["s1"].costs
    expected = costs.cost(wrap(*[Sized(100, 0.0)] * 4))
    # The four members' messages were delivered without re-charging the
    # host: its whole bill is the one envelope.
    assert len(members[(0, "s1")].received) == 4
    assert muxes["s1"].host.cpu_busy_us == expected
