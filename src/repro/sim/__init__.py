"""Discrete-event simulation substrate.

Everything in the evaluation half of the reproduction runs on this simulator:
a single-threaded event loop with an integer-microsecond clock, a WAN network
model (latency matrix + jitter + per-host NIC serialization + loss +
partitions), and a process model where nodes live on `Host`s (machines):
message handling costs CPU time and queues behind other work on the same
host — by default one private host per node, or many group replicas
multiplexed onto one shared machine.

The three resource models (WAN latency, node CPU, node NIC bandwidth) are the
three budget terms the paper's evaluation exercises, so reproducing them is
what makes the figure *shapes* come out right.
"""

from repro.sim.events import Event, Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Host, Node, NodeCosts, Timer
from repro.sim.rng import SplitRng
from repro.sim.topology import (
    EC2_REGIONS,
    HostPlan,
    Topology,
    ec2_five_regions,
    symmetric_lan,
    uniform_topology,
)
from repro.sim.units import ms, sec, us, to_ms, to_sec

__all__ = [
    "EC2_REGIONS",
    "Event",
    "Host",
    "HostPlan",
    "Network",
    "NetworkConfig",
    "Node",
    "NodeCosts",
    "Simulator",
    "SplitRng",
    "Timer",
    "Topology",
    "ec2_five_regions",
    "ms",
    "sec",
    "symmetric_lan",
    "to_ms",
    "to_sec",
    "uniform_topology",
    "us",
]
