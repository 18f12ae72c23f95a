"""`ClientPlan`: the unified spawn path (naming, rng streams, private hosts,
open-loop rate split), shared by both cluster harnesses."""

import pytest

from repro.bench.harness import Cluster, ExperimentSpec
from repro.metrics.recorder import MetricsRecorder
from repro.shard.cluster import ShardedCluster, ShardedSpec
from repro.shard.router import ShardRoutedClient
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import SplitRng
from repro.sim.topology import symmetric_lan
from repro.sim.units import ms, sec
from repro.workload.clients import ClosedLoopClient
from repro.workload.plan import ClientPlan
from repro.workload.session import RetryPolicy
from repro.workload.ycsb import WorkloadConfig

from tests.workload.test_session import WindowServer

WORKLOAD = WorkloadConfig(read_fraction=0.5, conflict_rate=0.0, records=10)


def build_net(sites=2):
    sim = Simulator()
    net = Network(sim, symmetric_lan(sites, rtt_ms_value=1.0),
                  rng=SplitRng(2), config=NetworkConfig())
    return sim, net


def spawn(plan, sites=("s0", "s1"), stop_at=None):
    sim, net = build_net(len(sites))
    servers = {site: WindowServer(f"srv_{site}", sim, net, site=site)
               for site in sites}
    metrics = MetricsRecorder()
    clients = plan.spawn(
        list(sites), SplitRng(1),
        lambda name, site, rng, **knobs: ClosedLoopClient(
            name, sim, net, site, f"srv_{site}", WORKLOAD, list(sites), rng,
            metrics, stop_at=stop_at, **knobs))
    return sim, servers, clients, metrics


def test_plan_reproduces_legacy_fleet():
    sim, servers, clients, metrics = spawn(ClientPlan(per_region=3))
    assert len(clients) == 6
    assert [c.name for c in clients][:3] == ["c_s0_0", "c_s0_1", "c_s0_2"]
    assert {c.site for c in clients} == {"s0", "s1"}
    # legacy layout: one private host per client
    assert len({id(c.host) for c in clients}) == 6
    sim.run(until=ms(100))
    assert all(c.completed > 0 for c in clients)


def test_plan_threads_session_knobs():
    retry = RetryPolicy(jitter=0.0)
    plan = ClientPlan(per_region=1, depth=5, retry=retry)
    sim, servers, clients, metrics = spawn(plan)
    for client in clients:
        assert client.depth == 5
        assert client.retry is retry


def test_plan_open_loop_splits_offered_load():
    plan = ClientPlan(per_region=2, offered_load=400.0)
    assert plan.rate_per_client(["s0", "s1"]) == pytest.approx(100.0)
    sim, servers, clients, metrics = spawn(plan, stop_at=sec(1))
    sim.run(until=sec(1))
    arrivals = sum(c.arrivals for c in clients)
    assert 280 <= arrivals <= 560  # ~400 expected over 1 s


FLEET = dict(clients_per_region=1, duration_s=2.0, warmup_s=0.5,
             cooldown_s=0.5, workload=WORKLOAD)


@pytest.mark.parametrize("build, client_class", [
    (lambda load: Cluster(ExperimentSpec(offered_load=load, **FLEET)),
     ClosedLoopClient),
    (lambda load: ShardedCluster(ShardedSpec(num_shards=2,
                                             offered_load=load, **FLEET)),
     ShardRoutedClient),
], ids=["single-group", "sharded"])
def test_open_loop_is_a_rate_on_each_harness_one_client_class(build,
                                                              client_class):
    cluster = build(500.0)
    clients = cluster.clients
    assert {type(client) for client in clients} == {client_class}
    for client in clients:
        assert client.rate_per_sec == pytest.approx(500.0 / len(clients))
    cluster.sim.run(until=sec(1))
    assert all(client.arrivals > 0 for client in clients)
