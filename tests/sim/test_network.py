"""Network model: latency, FIFO, bandwidth, loss, partitions."""

import pytest

from repro.sim.errors import UnknownNodeError
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node, NodeCosts
from repro.sim.rng import SplitRng
from repro.sim.topology import symmetric_lan, uniform_topology
from repro.sim.units import ms


class Sink(Node):
    """Records (time, src, message)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("costs", NodeCosts(per_message=0, per_command=0, per_byte=0))
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, src, message):
        self.received.append((self.sim.now, src, message))


class Payload:
    def __init__(self, size=64, tag=None):
        self._size = size
        self.tag = tag

    def size_bytes(self):
        return self._size


def build_pair(rtt_ms=10.0, **net_kwargs):
    sim = Simulator()
    topo = uniform_topology(["x", "y"], rtt_ms, jitter_fraction=0.0)
    net = Network(sim, topo, rng=SplitRng(3), config=NetworkConfig(**net_kwargs))
    a = Sink("x", sim, net)
    b = Sink("y", sim, net)
    return sim, net, a, b


def test_delivery_takes_one_way_latency():
    sim, net, a, b = build_pair(rtt_ms=10.0)
    a.send("y", Payload(size=0))
    sim.run()
    assert len(b.received) == 1
    # one-way = 5ms, plus zero serialization for 0 bytes
    assert b.received[0][0] == ms(5)


def test_bandwidth_serialization_delays_departure():
    sim, net, a, b = build_pair(rtt_ms=10.0, bandwidth_bytes_per_sec=1000.0)
    a.send("y", Payload(size=1000))  # 1 second of serialization
    sim.run()
    assert b.received[0][0] == 1_000_000 + ms(5)


def test_egress_queue_serializes_back_to_back_sends():
    sim, net, a, b = build_pair(rtt_ms=10.0, bandwidth_bytes_per_sec=1000.0)
    a.send("y", Payload(size=500, tag=1))  # 0.5 s
    a.send("y", Payload(size=500, tag=2))  # queued behind the first
    sim.run()
    times = [t for t, _, _ in b.received]
    assert times[0] == 500_000 + ms(5)
    assert times[1] == 1_000_000 + ms(5)


def test_egress_backlog_visible():
    sim, net, a, b = build_pair(rtt_ms=10.0, bandwidth_bytes_per_sec=1000.0)
    a.send("y", Payload(size=2000))
    assert net.egress_backlog_us("x") == 2_000_000


def test_fifo_preserves_order_despite_jitter():
    sim = Simulator()
    topo = uniform_topology(["x", "y"], 50.0, jitter_fraction=0.5)
    net = Network(sim, topo, rng=SplitRng(5), config=NetworkConfig(fifo=True))
    a = Sink("x", sim, net)
    b = Sink("y", sim, net)
    for i in range(50):
        a.send("y", Payload(size=0, tag=i))
    sim.run()
    tags = [m.tag for _, _, m in b.received]
    assert tags == list(range(50))


def test_non_fifo_can_reorder():
    sim = Simulator()
    topo = uniform_topology(["x", "y"], 50.0, jitter_fraction=0.9)
    net = Network(sim, topo, rng=SplitRng(5), config=NetworkConfig(fifo=False))
    a = Sink("x", sim, net)
    b = Sink("y", sim, net)
    for i in range(100):
        a.send("y", Payload(size=0, tag=i))
    sim.run()
    tags = [m.tag for _, _, m in b.received]
    assert tags != list(range(100))  # with 90% jitter some reorder happens


def test_loss_rate_drops_messages():
    sim = Simulator()
    topo = symmetric_lan(2)
    net = Network(sim, topo, rng=SplitRng(5), config=NetworkConfig(loss_rate=0.5))
    a = Sink("s0", sim, net)
    b = Sink("s1", sim, net)
    for _ in range(200):
        a.send("s1", Payload(size=0))
    sim.run()
    assert 40 < len(b.received) < 160
    assert net.messages_dropped == 200 - len(b.received)


def test_block_and_unblock():
    sim, net, a, b = build_pair()
    net.block("x", "y")
    a.send("y", Payload())
    b.send("x", Payload())
    sim.run()
    assert b.received == [] and a.received == []
    net.unblock("x", "y")
    a.send("y", Payload())
    sim.run()
    assert len(b.received) == 1


def test_partition_and_heal():
    sim = Simulator()
    topo = symmetric_lan(4)
    net = Network(sim, topo, rng=SplitRng(1))
    nodes = [Sink(f"s{i}", sim, net) for i in range(4)]
    net.partition(["s0", "s1"], ["s2", "s3"])
    nodes[0].send("s3", Payload())
    nodes[0].send("s1", Payload())
    sim.run()
    assert nodes[3].received == []
    assert len(nodes[1].received) == 1
    net.heal()
    nodes[0].send("s3", Payload())
    sim.run()
    assert len(nodes[3].received) == 1


def test_isolate():
    sim = Simulator()
    topo = symmetric_lan(3)
    net = Network(sim, topo, rng=SplitRng(1))
    nodes = [Sink(f"s{i}", sim, net) for i in range(3)]
    net.isolate("s0")
    nodes[0].send("s1", Payload())
    nodes[1].send("s0", Payload())
    nodes[1].send("s2", Payload())
    sim.run()
    assert nodes[1].received == []
    assert nodes[0].received == []
    assert len(nodes[2].received) == 1


def test_unknown_destination_raises():
    sim, net, a, b = build_pair()
    with pytest.raises(UnknownNodeError):
        a.send("ghost", Payload())


def test_crashed_node_drops_messages():
    sim, net, a, b = build_pair()
    b.crash()
    a.send("y", Payload())
    sim.run()
    assert b.received == []
    assert net.messages_dropped == 1


def test_default_size_estimate_for_plain_objects():
    sim, net, a, b = build_pair()
    a.send("y", "just a string")
    sim.run()
    assert len(b.received) == 1


def test_self_send_uses_local_latency():
    sim, net, a, b = build_pair()
    a.send("x", Payload())
    sim.run()
    assert a.received[0][0] == net.topology.local_us


# -- resolved link records ---------------------------------------------------
#
# A directed pair's route facts are resolved once, on its first send.  The
# tests below pin what must NOT be frozen with them: fault state, late
# registrations, re-bound names.


def build_trio(**net_kwargs):
    sim = Simulator()
    topo = uniform_topology(["x", "y", "z"], 10.0, jitter_fraction=0.0)
    net = Network(sim, topo, rng=SplitRng(3), config=NetworkConfig(**net_kwargs))
    return sim, net, [Sink(site, sim, net) for site in ("x", "y", "z")]


@pytest.mark.parametrize("cut", [
    lambda net: net.block("x", "y"),
    lambda net: net.partition(["x"], ["y", "z"]),
    lambda net: net.isolate("y"),
])
def test_link_resolved_before_a_cut_still_drops_and_heals(cut):
    sim, net, (a, b, c) = build_trio()
    a.send("y", Payload(tag=1))
    b.send("x", Payload(tag=2))
    sim.run()
    assert len(b.received) == 1 and len(a.received) == 1  # links resolved
    cut(net)
    assert net.link_blocked("x", "y") and net.link_blocked("y", "x")
    a.send("y", Payload(tag=3))
    b.send("x", Payload(tag=4))
    sim.run()
    assert len(b.received) == 1 and len(a.received) == 1
    assert net.messages_dropped == 2
    net.heal()
    assert not net.link_blocked("x", "y")
    a.send("y", Payload(tag=5))
    sim.run()
    assert [m.tag for _, _, m in b.received] == [1, 5]


def test_site_uplink_serializes_only_across_sites():
    sim = Simulator()
    net = Network(sim, symmetric_lan(2), rng=SplitRng(1), config=NetworkConfig(
        bandwidth_bytes_per_sec=1e9, site_bandwidth_bytes_per_sec=1000.0))
    a = Sink("a", sim, net, site="s0")
    b = Sink("b", sim, net, site="s0")
    far = Sink("far", sim, net, site="s1")
    # Inside the site: two private NICs, no shared uplink in the way.
    a.send("b", Payload(size=500))
    assert net.site_egress_backlog_us("s0") == 0
    # Across sites: both senders' messages queue on s0's one uplink
    # (0.5 s each at 1000 B/s), whichever NIC they left through.
    a.send("far", Payload(size=500, tag="a"))
    b.send("far", Payload(size=500, tag="b"))
    assert net.site_egress_backlog_us("s0") == 1_000_000
    assert net.site_egress_backlog_us("s1") == 0
    sim.run()
    times = {m.tag: t for t, _, m in far.received}
    assert times["b"] - times["a"] == 500_000
    # The intra-site message never waited for the uplink.
    assert b.received[0][0] < 1_000


def test_without_site_bandwidth_there_is_no_uplink():
    sim, net, (a, b, c) = build_trio(bandwidth_bytes_per_sec=1000.0)
    a.send("y", Payload(size=500))
    assert net.site_egress_backlog_us("x") == 0
    assert net.egress_backlog_us("x") == 500_000


def test_fifo_mark_is_per_pair_not_per_sender():
    """x->z is slow and jittered, x->y fast: a later message to y must not
    wait for an earlier one to z, while each pair stays in order."""
    sim = Simulator()
    topo = uniform_topology(["x", "y", "z"], 10.0, jitter_fraction=0.9)
    topo.one_way_us[("x", "z")] = ms(200)
    net = Network(sim, topo, rng=SplitRng(11), config=NetworkConfig(fifo=True))
    a, b, c = (Sink(site, sim, net) for site in ("x", "y", "z"))
    for i in range(40):
        a.send("z", Payload(size=0, tag=("z", i)))
        a.send("y", Payload(size=0, tag=("y", i)))
    sim.run()
    assert [m.tag[1] for _, _, m in b.received] == list(range(40))
    assert [m.tag[1] for _, _, m in c.received] == list(range(40))
    assert b.received[-1][0] < c.received[0][0]
    # In-order arrivals on one pair are strictly increasing.
    z_times = [t for t, _, _ in c.received]
    assert all(t1 < t2 for t1, t2 in zip(z_times, z_times[1:]))


def test_node_registered_after_traffic_is_reached_both_ways():
    """The `add_replica` / `replace_host` joiner: a name that did not exist
    when every other link was resolved."""
    sim, net, (a, b, c) = build_trio()
    for node in (a, b, c):
        for dst in ("x", "y", "z"):
            node.send(dst, Payload())
    sim.run()
    with pytest.raises(UnknownNodeError):
        a.send("joiner", Payload())
    joiner = Sink("joiner", sim, net, site="y")
    a.send("joiner", Payload(size=0, tag="in"))
    joiner.send("x", Payload(size=0, tag="out"))
    sim.run()
    assert [(t, m.tag) for t, _, m in joiner.received] == [(sim.now, "in")]
    assert a.received[-1][2].tag == "out"
    assert a.received[-1][0] == joiner.received[0][0]  # same x<->y latency


def test_reregistered_name_reaches_the_new_object_at_its_new_site():
    sim, net, (a, b, c) = build_trio()
    net.topology.one_way_us[("x", "z")] = ms(40)
    a.send("y", Payload(size=0, tag="old"))
    b.send("x", Payload(size=0, tag="from-old"))
    sim.run()
    assert [m.tag for _, _, m in b.received] == ["old"]
    # Re-bind the name "y" to a new process in site z: links to AND from
    # the name resolve again (new object, new site's latency).
    moved = Sink("y", sim, net, site="z")
    assert net.node("y") is moved
    start = sim.now
    a.send("y", Payload(size=0, tag="new"))
    moved.send("x", Payload(size=0, tag="from-new"))
    sim.run()
    assert [m.tag for _, _, m in b.received] == ["old"]
    assert [(t - start, m.tag) for t, _, m in moved.received] == [(ms(40), "new")]
    assert a.received[-1][2].tag == "from-new"
    assert a.received[-1][0] - start == ms(40)


def test_unknown_destination_is_not_counted_as_sent():
    sim, net, a, b = build_pair()
    a.send("y", Payload())
    with pytest.raises(UnknownNodeError):
        net.send("x", "ghost", Payload())
    assert net.messages_sent == 1
    assert net.egress_backlog_us("ghost") == 0


def test_one_link_record_per_directed_pair():
    """Counted, not timed: repeated sends resolve nothing new, and the two
    directions of a pair (and the NIC they leave through) are distinct."""
    sim, net, (a, b, c) = build_trio()
    resolved = []
    original = net._resolve

    def counting(src, dst):
        resolved.append((src, dst))
        return original(src, dst)

    net._resolve = counting
    for _ in range(5):
        a.send("y", Payload())
        a.send("z", Payload())
        b.send("x", Payload())
    assert resolved == [("x", "y"), ("x", "z"), ("y", "x")]
    assert net._links["x"]["y"].nic is net._links["x"]["z"].nic
    assert net._links["x"]["y"].nic is not net._links["y"]["x"].nic
