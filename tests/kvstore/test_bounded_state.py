"""Where the per-key install order exists, and that it exists nowhere else.

A store records every value installed at a key only when it is a shard
member (it has a key filter): range migration ships that order and the
strict-serializability checker reads it.  A single group's checker takes
write order from the applied commands, so a single-group store keeps no
per-write history — its memory must not grow with every write it applies.
Count-based: no timing.
"""

import pytest

from repro.bench.harness import Cluster, ExperimentSpec
from repro.kvstore.store import KVStore
from repro.protocols.types import Command, OpType
from repro.shard import ShardedSpec
from repro.shard.cluster import ShardedCluster
from repro.sim.units import sec
from repro.workload.ycsb import WorkloadConfig


def written_keys(store):
    return {key for key in store.snapshot() if store.version(key) > 0}


@pytest.mark.parametrize("protocol", ["raft", "multipaxos", "mencius"])
def test_single_group_stores_keep_no_install_order(protocol):
    cluster = Cluster(ExperimentSpec(
        protocol=protocol, clients_per_region=2, duration_s=4.0,
        warmup_s=0.5, cooldown_s=0.5,
        workload=WorkloadConfig(read_fraction=0.0, conflict_rate=0.0,
                                records=200)))
    cluster.sim.run(until=sec(1.0))
    victim = next(iter(cluster.replicas.values()))
    victim.crash()
    victim.recover()  # `reset_store`: a fresh store replays the log
    cluster.sim.run(until=sec(4.0))
    for replica in cluster.replicas.values():
        store = replica.store
        assert written_keys(store), "the run wrote nothing to check"
        with pytest.raises(RuntimeError, match="no install order"):
            store.install_orders()


def test_write_order_on_a_single_group_store_raises():
    store = KVStore()
    store.apply(Command(op=OpType.PUT, key="k", value="v",
                        client_id="c", seq=1))
    with pytest.raises(RuntimeError, match="no install order"):
        store.write_order("k")


def test_every_shard_member_records_install_order():
    spec = ShardedSpec(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=1,
        workload=WorkloadConfig(read_fraction=0.2, conflict_rate=0.0,
                                records=200, value_size=64),
        duration_s=4.0, warmup_s=0.5, cooldown_s=0.5, seed=11,
        hosts_per_site=1)
    cluster = ShardedCluster(spec)
    leader = cluster.groups[0][f"g0_r_{cluster.leaders[0]}"]
    added = {}
    cluster.sim.schedule_at(sec(0.5), lambda: added.update(
        name=cluster.add_replica(0, leader.site)))
    cluster.reshard(3, at=sec(1.0))
    cluster.sim.run(until=sec(spec.duration_s))

    assert cluster.reshard_completed_at is not None
    assert added["name"] in cluster.groups[0]
    assert set(cluster.groups) == {0, 1, 2}  # group 2 spun up by reshard
    for shard, replicas in cluster.groups.items():
        for name, replica in replicas.items():
            store = replica.store
            keys = written_keys(store)
            assert keys, f"{name} applied no write"
            assert set(store.install_orders()) >= keys
            for key in keys:
                assert len(store.write_order(key)) == store.version(key), (
                    name, key)
    # The reshard's control group is no shard member: it keeps none.
    for replica in cluster.coordinator.control.replicas.values():
        with pytest.raises(RuntimeError):
            replica.store.install_orders()
