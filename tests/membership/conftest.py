"""Shared harness for the membership tests: a minimal client and a
single-group builder (simulator + LAN + one consensus group), the same
shape the protocol-level suites use, plus the spawn-a-joiner helper the
reconfiguration tests drive."""

import dataclasses

import pytest

from repro.protocols.config import ClusterConfig
from repro.protocols.messages import ClientReply, ClientRequest
from repro.protocols.types import Command, OpType
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node, NodeCosts
from repro.sim.rng import SplitRng
from repro.sim.topology import symmetric_lan
from repro.sim.units import ms


class LittleClient(Node):
    """Fire-and-collect client: every reply is kept by request id."""

    def __init__(self, name, sim, network):
        super().__init__(name, sim, network, site="s0",
                         costs=NodeCosts(per_message=0, per_command=0,
                                         per_byte=0))
        self.replies = {}
        self.seq = 0

    def put(self, server, key, value):
        self.seq += 1
        cmd = Command(op=OpType.PUT, key=key, value=value,
                      client_id=self.name, seq=self.seq)
        self.send(server, ClientRequest(command=cmd))
        return cmd

    def get(self, server, key, consistency=None):
        self.seq += 1
        kwargs = {} if consistency is None else {"consistency": consistency}
        cmd = Command(op=OpType.GET, key=key, client_id=self.name,
                      seq=self.seq, **kwargs)
        self.send(server, ClientRequest(command=cmd))
        return cmd

    def send_config(self, server, change):
        self.seq += 1
        cmd = change.encode(self.name, self.seq)
        self.send(server, ClientRequest(command=cmd))
        return cmd

    def ok_count(self):
        return sum(1 for r in self.replies.values() if r.ok)

    def on_message(self, src, message):
        if isinstance(message, ClientReply):
            self.replies[message.request_id] = message


class Group:
    """One consensus group plus its simulator, network, and client."""

    def __init__(self, cls, n=3, seed=7, **config_kwargs):
        self.cls = cls
        self.sim = Simulator()
        topo = symmetric_lan(n + 2, rtt_ms_value=2.0)
        self.network = Network(self.sim, topo, rng=SplitRng(seed),
                               config=NetworkConfig(fifo=True))
        self.config = ClusterConfig(
            replicas={f"s{i}": f"s{i}" for i in range(n)},
            initial_leader="s0",
            election_timeout_min=ms(150), election_timeout_max=ms(300),
            heartbeat_interval=ms(30), **config_kwargs)
        self.replicas = {name: cls(name, self.sim, self.network, self.config)
                         for name in self.config.names}
        self.client = LittleClient("client", self.sim, self.network)
        self.sim.run(until=ms(200))  # settle the initial leadership

    def spawn_joiner(self, name):
        """A fresh, empty replica that must not campaign until a committed
        config makes it a voter (the cluster layer does the same dance)."""
        config = dataclasses.replace(
            self.config,
            replicas={**self.config.replicas, name: name},
            initial_leader=None)
        joiner = self.cls(name, self.sim, self.network, config)
        joiner.joining = True
        joiner._leader_timer.cancel()
        self.replicas[name] = joiner
        return joiner

    def run_for(self, duration_ms):
        self.sim.run(until=self.sim.now + ms(duration_ms))


@pytest.fixture
def make_group():
    return Group
