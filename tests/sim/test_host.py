"""Host runtime: shared CPU queue, shared NIC, machine-granularity crashes."""

import pytest

from repro.sim.errors import NodeStateError
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Host, Node, NodeCosts
from repro.sim.topology import HostPlan, symmetric_lan


class Recorder(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, src, message):
        self.received.append((self.sim.now, src, message))


def build(n_sites=2, **net_kwargs):
    sim = Simulator()
    network = Network(sim, symmetric_lan(n_sites),
                      config=NetworkConfig(**net_kwargs))
    return sim, network


def test_private_host_by_default_matches_old_model():
    sim, network = build()
    a = Recorder("a", sim, network, site="s0", costs=NodeCosts(per_message=100))
    b = Recorder("b", sim, network, site="s0", costs=NodeCosts(per_message=100))
    assert a.host is not b.host
    assert a.host.name == "a" and b.host.name == "b"
    # Two different nodes handle concurrently: no shared queueing.
    network.send("a", "b", "m1")
    network.send("b", "a", "m2")
    sim.run()
    assert a.cpu_backlog_us() == 0
    assert len(a.received) == 1 and len(b.received) == 1


def test_shared_host_serializes_cpu_across_nodes():
    sim, network = build()
    host = Host("box", sim, site="s0")
    a = Recorder("a", sim, network, site="s0",
                 costs=NodeCosts(per_message=100, per_byte=0), host=host)
    b = Recorder("b", sim, network, site="s0",
                 costs=NodeCosts(per_message=100, per_byte=0), host=host)
    sender = Recorder("c", sim, network, site="s0",
                      costs=NodeCosts(per_message=0, per_byte=0))
    assert host.nodes == [a, b]
    # Deliver one message to each colocated node at the same instant: the
    # second must queue behind the first on the shared CPU.
    sim.schedule(0, a._receive, "c", "m-a")
    sim.schedule(0, b._receive, "c", "m-b")
    sim.run()
    (ta, _, _), = a.received
    (tb, _, _), = b.received
    assert {ta, tb} == {100, 200}
    assert host.cpu_busy_us == 200


def test_shared_host_shares_nic_egress():
    sim, network = build()
    host = Host("box", sim, site="s0")
    costs = NodeCosts(per_message=0, per_byte=0)
    a = Recorder("a", sim, network, site="s0", costs=costs, host=host)
    b = Recorder("b", sim, network, site="s0", costs=costs, host=host)
    Recorder("far", sim, network, site="s1", costs=costs)

    class Sized:
        def size_bytes(self):
            return 4096

    # Both colocated nodes transmit cross-site at t=0: the second message
    # serializes behind the first on the one shared NIC.
    network.send("a", "far", Sized())
    network.send("b", "far", Sized())
    assert network.egress_backlog_us("a") == network.egress_backlog_us("b")
    assert network.egress_backlog_us("box") > 0
    # Compare against two private NICs: each node would only queue its own.
    sim2, network2 = build()
    a2 = Recorder("a", sim2, network2, site="s0", costs=costs)
    Recorder("far", sim2, network2, site="s1", costs=costs)
    network2.send("a", "far", Sized())
    assert network.egress_backlog_us("a") == 2 * network2.egress_backlog_us("a")


def test_nodes_and_mux_on_one_host_share_one_nic_record():
    """Two replicas and the host's `GroupMux` are three senders behind one
    NIC: the backlog reads the same by any of their names and by the
    host's, and each one's sends queue behind the others'."""
    from repro.protocols.mux import GroupMux, MuxDirectory

    sim, network = build()
    host = Host("box", sim, site="s0")
    costs = NodeCosts(per_message=0, per_byte=0)
    a = Recorder("a", sim, network, site="s0", costs=costs, host=host)
    b = Recorder("b", sim, network, site="s0", costs=costs, host=host)
    mux = GroupMux(host, sim, network, MuxDirectory(), flush_interval=500)
    Recorder("far", sim, network, site="s1", costs=costs)

    class Sized:
        def size_bytes(self):
            return 4096

    one = None
    for sender in (a, b, mux):
        network.send(sender.name, "far", Sized())
        backlogs = {network.egress_backlog_us(name)
                    for name in ("a", "b", mux.name, "box")}
        assert len(backlogs) == 1
        one = one or backlogs.pop()
    assert network.egress_backlog_us("box") == 3 * one
    assert network.egress_backlog_us("far") == 0
    links = network._links
    assert (links["a"]["far"].nic is links["b"]["far"].nic
            is links[mux.name]["far"].nic)


def test_host_crash_takes_all_colocated_nodes_down_and_back():
    sim, network = build()
    host = Host("box", sim, site="s0")
    a = Recorder("a", sim, network, site="s0", host=host)
    b = Recorder("b", sim, network, site="s0", host=host)
    assert host.alive
    host.crash()
    assert not a.alive and not b.alive and not host.alive
    host.recover()
    assert a.alive and b.alive and host.alive
    # Idempotent at the node layer: a second host.crash only crashes
    # still-alive nodes.
    a.crash()
    host.crash()
    assert not b.alive
    with pytest.raises(NodeStateError):
        a.crash()


def test_recover_frees_cpu_only_when_no_live_cohabitant_queues():
    sim, network = build()
    host = Host("box", sim, site="s0")
    costs = NodeCosts(per_message=1000, per_byte=0)
    a = Recorder("a", sim, network, site="s0", costs=costs, host=host)
    b = Recorder("b", sim, network, site="s0", costs=costs, host=host)
    a._receive("x", "m")
    b._receive("x", "m")
    assert host.cpu_backlog_us() == 2000
    a.crash()
    a.recover()
    # b is alive with queued work: the backlog must survive a's restart.
    assert host.cpu_backlog_us() == 2000
    # Whole machine down, first node back up: the dropped queue frees the
    # CPU (nobody alive still owns that work).
    a.crash()
    b.crash()
    a.recover()
    assert host.cpu_backlog_us() == 0


def test_host_plan_layout():
    plan = HostPlan(("oregon", "ohio"), hosts_per_site=2)
    assert plan.host_for_group("oregon", 0) == "h0.oregon"
    assert plan.host_for_group("oregon", 1) == "h1.oregon"
    assert plan.host_for_group("ohio", 2) == "h0.ohio"
    assert len(plan.host_names()) == 4
    assert HostPlan.site_of_host("h1.oregon") == "oregon"
    with pytest.raises(ValueError):
        HostPlan(("oregon",), hosts_per_site=0)
