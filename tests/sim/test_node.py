"""Process model: CPU queue, timers, crash/recover."""

import pytest

from repro.sim.errors import NodeStateError
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node, NodeCosts
from repro.sim.rng import SplitRng
from repro.sim.topology import symmetric_lan
from repro.sim.units import ms


class Recorder(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = []

    def on_message(self, src, message):
        self.handled.append((self.sim.now, message))


class Sized:
    def __init__(self, size=0, units=0.0):
        self._size, self._units = size, units

    def size_bytes(self):
        return self._size

    def command_count(self):
        return self._units


def build(costs=None):
    sim = Simulator()
    net = Network(sim, symmetric_lan(2, rtt_ms_value=0.0), rng=SplitRng(1))
    node = Recorder("s0", sim, net, costs=costs or NodeCosts(per_message=100, per_command=0, per_byte=0))
    peer = Recorder("s1", sim, net, costs=NodeCosts(per_message=0, per_command=0, per_byte=0))
    return sim, net, node, peer


def test_message_handling_costs_cpu():
    sim, net, node, peer = build()
    peer.send("s0", Sized())
    sim.run()
    assert node.handled[0][0] == 100  # arrival at 0 + 100us processing


def test_messages_queue_behind_each_other():
    sim, net, node, peer = build()
    for _ in range(3):
        peer.send("s0", Sized())
    sim.run()
    times = [t for t, _ in node.handled]
    assert times == [100, 200, 300]


def test_cost_model_components():
    costs = NodeCosts(per_message=10, per_command=100, per_byte=1.0)
    assert costs.cost(Sized(size=50, units=2.0)) == 10 + 200 + 50


def test_cost_model_fractional_units():
    costs = NodeCosts(per_message=0, per_command=100, per_byte=0)
    assert costs.cost(Sized(units=0.25)) == 25


def test_cpu_backlog_and_utilization():
    sim, net, node, peer = build()
    for _ in range(5):
        peer.send("s0", Sized())
    sim.run(until=0)  # deliveries only (rtt 0); handlers queued at +100us
    assert node.cpu_backlog_us() > 0
    sim.run()
    # Five 100 us messages kept the host busy for the whole 500 us.
    assert sim.now == 500 and node.host.cpu_busy_us == 500


def test_timer_fires():
    sim, net, node, peer = build()
    fired = []
    timer = node.timer("t")
    timer.arm(ms(5), lambda: fired.append(sim.now))
    sim.run()
    assert fired == [ms(5)]
    assert not timer.armed


def test_timer_cancel():
    sim, net, node, peer = build()
    fired = []
    timer = node.timer("t")
    timer.arm(ms(5), lambda: fired.append(1))
    timer.cancel()
    sim.run()
    assert fired == []


def test_timer_rearm_replaces():
    sim, net, node, peer = build()
    fired = []
    timer = node.timer("t")
    timer.arm(ms(5), lambda: fired.append("first"))
    timer.arm(ms(10), lambda: fired.append("second"))
    sim.run()
    assert fired == ["second"]


def test_timer_does_not_fire_after_crash():
    sim, net, node, peer = build()
    fired = []
    node.timer("t").arm(ms(5), lambda: fired.append(1))
    node.crash()
    sim.run()
    assert fired == []


def test_timer_from_previous_incarnation_ignored():
    sim, net, node, peer = build()
    fired = []
    node.timer("t").arm(ms(5), lambda: fired.append(1))
    node.crash()
    node.recover()
    sim.run()
    assert fired == []  # armed before the crash; incarnation changed


def test_crash_twice_raises():
    sim, net, node, peer = build()
    node.crash()
    with pytest.raises(NodeStateError):
        node.crash()


def test_recover_when_alive_raises():
    sim, net, node, peer = build()
    with pytest.raises(NodeStateError):
        node.recover()


def test_crashed_node_does_not_send():
    sim, net, node, peer = build()
    node.crash()
    node.send("s1", Sized())
    sim.run()
    assert peer.handled == []


def test_in_flight_work_dropped_on_crash():
    sim, net, node, peer = build()
    peer.send("s0", Sized())
    sim.run(until=0)  # delivered (rtt 0), handler queued at +100us
    node.crash()
    sim.run()
    assert node.handled == []


def test_stable_storage_survives_crash():
    sim, net, node, peer = build()
    node.stable["log"] = [1, 2, 3]
    node.crash()
    node.recover()
    assert node.stable["log"] == [1, 2, 3]


def test_after_helper():
    sim, net, node, peer = build()
    fired = []
    node.after(ms(1), lambda: fired.append(sim.now))
    sim.run()
    assert fired == [ms(1)]
