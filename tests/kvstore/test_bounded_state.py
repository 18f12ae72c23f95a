"""Where the install order exists, what it costs, and that it exists
nowhere else.

A store records every value installed at a key only when it is a shard
member (it has a key filter): range migration ships that order and the
strict-serializability checker reads it.  A single group's checker takes
write order from the applied commands, so a single-group store keeps no
per-write history — its memory must not grow with every write it applies.
A member keeps the order as one record of (key, value) slots, and a
recovered replica shares its log's entries with stable storage.
Count-based: no timing.
"""

import gc
import json
import random
import tracemalloc
from types import MappingProxyType

import pytest

from repro.bench.harness import Cluster, ExperimentSpec
from repro.kvstore.store import KVStore
from repro.protocols.types import Command, OpType
from repro.shard.partition import HASH_SPACE, key_point
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
    victim.recover()  # a fresh store replays the log
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


# -- what a member's install order costs ----------------------------------------


def retained_by_writes(store, commands):
    """Bytes `store` still holds after applying `commands` (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for command in commands:
            store.apply(command)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_member_records_each_write_in_a_few_bytes():
    """The install order costs a member at most 24 B per single-write key
    over a store that only counts versions (a list per key costs ~110 B
    more)."""
    writes = 10_000
    commands = [Command(op=OpType.PUT, key=f"key{i}", value=f"value{i}",
                        client_id="c", seq=i, acked_low_water=i - 1)
                for i in range(1, writes + 1)]
    member = KVStore(key_filter=lambda key: True)
    plain = KVStore()
    extra = retained_by_writes(member, commands) - retained_by_writes(
        plain, commands)
    assert extra <= 24 * writes, f"{extra / writes:.1f} B per write"
    assert len(member.write_order("key7")) == member.version("key7") == 1


# -- the one record against a list per key --------------------------------------


class PerKeyListStore(KVStore):
    """The install order as a list per key, the representation the one
    per-store record replaced, kept beside a store that counts versions:
    a member must export, snapshot and digest exactly what this does."""

    def __init__(self):
        super().__init__()
        self.lists = {}

    def _put_local(self, key, value):
        super()._put_local(key, value)
        self.lists.setdefault(key, []).append(value)

    def export_range(self, lo, hi):
        export = super().export_range(lo, hi)
        export["write_log"] = {key: self.lists.pop(key)
                               for key in sorted(self.lists)
                               if lo <= key_point(key) < hi}
        return export

    def import_range(self, payload):
        imported = super().import_range(payload)
        for key, log in payload.get("write_log", {}).items():
            self.lists[key] = list(log) + self.lists.get(key, [])
        return imported

    def export_full(self):
        snapshot = super().export_full()
        snapshot["write_log"] = {key: list(log)
                                 for key, log in self.lists.items()}
        return snapshot

    def install_full(self, payload):
        super().install_full(payload)
        self.lists = {key: list(log)
                      for key, log in payload.get("write_log", {}).items()}

    def install_orders(self):
        return MappingProxyType(self.lists)


def txn_command(op, payload, client, seq):
    value = json.dumps(payload, sort_keys=True)
    return Command(op=op, key=f"txn:{payload.get('handle', client)}",
                   value=value, client_id=client, seq=seq,
                   value_size=len(value))


def seeded_history(rng, steps=400):
    """Commands and store-level steps: PUTs, single-shard TXNs, 2PC
    prepare + commit/abort, MIGRATE_OUT of a random range, an import of
    a range exported by another member (keys this store never wrote, as
    routing guarantees), and a catch-up snapshot round trip."""
    keys = [f"k{i}" for i in range(40)]
    seqs = {}
    fresh = iter(range(10**6))

    def next_seq(client):
        seqs[client] = seqs.get(client, 0) + 1
        return seqs[client]

    for step in range(steps):
        roll = rng.random()
        if roll < 0.5:
            client = f"c{rng.randrange(4)}"
            seq = next_seq(client)
            yield "apply", Command(op=OpType.PUT, key=rng.choice(keys),
                                   value=f"v{next(fresh)}", client_id=client,
                                   seq=seq, acked_low_water=seq - 3)
        elif roll < 0.65:
            client = f"c{rng.randrange(4)}"
            ops = [["put" if rng.random() < 0.6 else "get", key,
                    f"v{next(fresh)}"] for key in rng.sample(keys, 2)]
            yield "apply", txn_command(OpType.TXN, {"ops": ops}, client,
                                       next_seq(client))
        elif roll < 0.8:
            handle = f"h{step}"
            client = f"__txn__:{handle}"
            ops = [["put", key, f"v{next(fresh)}"]
                   for key in rng.sample(keys, 2)]
            yield "apply", txn_command(OpType.TXN_PREPARE, {
                "handle": handle, "txn": f"t:{step}", "coord": "co",
                "inc": 0, "ts": step, "ops": ops}, client, 1)
            finish = OpType.TXN_COMMIT if rng.random() < 0.8 else OpType.TXN_ABORT
            yield "apply", txn_command(finish, {"handle": handle}, client, 2)
        elif roll < 0.88:
            lo = rng.randrange(HASH_SPACE)
            hi = min(HASH_SPACE, lo + rng.randrange(HASH_SPACE // 3))
            yield "apply", txn_command(OpType.MIGRATE_OUT,
                                       {"lo": lo, "hi": hi}, "__reshard__",
                                       next_seq("__reshard__"))
        elif roll < 0.95:
            donor = KVStore(key_filter=lambda key: True)
            for i in range(rng.randrange(1, 6)):
                key = f"d{step}.{i % 3}"
                donor.apply(Command(op=OpType.PUT, key=key,
                                    value=f"v{next(fresh)}", client_id="d",
                                    seq=i + 1))
            yield "import", json.loads(json.dumps(
                donor.export_range(0, HASH_SPACE)))
        else:
            yield "snapshot", None


@pytest.mark.parametrize("seed", range(6))
def test_member_matches_the_per_key_list_reference(seed):
    member = KVStore(key_filter=lambda key: True)
    reference = PerKeyListStore()
    exports = 0
    for kind, item in seeded_history(random.Random(seed)):
        if kind == "apply":
            got, want = member.apply(item), reference.apply(item)
            assert (got.ok, got.value) == (want.ok, want.value), item
            exports += item.op is OpType.MIGRATE_OUT and got.ok
        elif kind == "import":
            assert member.import_range(item) == reference.import_range(item)
        else:
            snapshot = json.loads(json.dumps(member.export_full()))
            assert snapshot == json.loads(json.dumps(reference.export_full()))
            member = KVStore(key_filter=lambda key: True)
            reference = PerKeyListStore()
            member.install_full(snapshot)
            reference.install_full(snapshot)
    assert exports, "the history migrated nothing"
    assert member.export_full() == reference.export_full()
    assert member.digest() == reference.digest()
    assert dict(member.install_orders()) == dict(reference.install_orders())
    assert dict(member.versions()) == dict(reference.versions())
    for key in reference.snapshot():
        assert member.version(key) == reference.version(key)
        assert member.write_order(key) == reference.lists[key]
    lo, hi = 0, HASH_SPACE // 2
    assert member.export_range(lo, hi) == reference.export_range(lo, hi)
    assert member.digest() == reference.digest()


def test_an_import_goes_ahead_of_writes_the_importer_already_has():
    store = KVStore(key_filter=lambda key: True)
    store.apply(Command(op=OpType.PUT, key="k", value="c", client_id="c",
                        seq=1))
    store.apply(Command(op=OpType.PUT, key="j", value="x", client_id="c",
                        seq=2))
    store.import_range({"table": {"k": "b"}, "versions": {"k": 2},
                        "write_log": {"k": ["a", "b"]}})
    assert store.write_order("k") == ["a", "b", "c"]
    assert store.write_order("j") == ["x"]
    assert store.version("k") == 3


def test_a_member_refuses_versions_without_their_install_order():
    """A member's versions are its installs: a range whose versions count
    writes it carries no order for is refused, not installed with its
    versions silently dropped."""
    donor = KVStore()  # counts versions, keeps no order
    donor.apply(Command(op=OpType.PUT, key="k", value="v", client_id="c",
                        seq=1))
    export = donor.export_range(0, HASH_SPACE)
    with pytest.raises(ValueError, match="install order"):
        KVStore(key_filter=lambda key: True).import_range(export)


# -- a recovered replica shares its log's entries ---------------------------------

LOGS = {"raft": "log", "multipaxos": "instances", "mencius": "entries"}


def log_rows(log):
    items = enumerate(log) if isinstance(log, list) else sorted(log.items())
    return [(index, entry) for index, entry in items]


@pytest.mark.parametrize("protocol", sorted(LOGS))
def test_recovered_log_holds_the_same_entries(protocol):
    """Crash and recovery copy the log container, never an entry: nothing
    assigns an entry field after construction, so a second private copy
    of every entry would only double the replica's log."""
    cluster = Cluster(ExperimentSpec(
        protocol=protocol, clients_per_region=2, duration_s=2.0,
        warmup_s=0.5, cooldown_s=0.5,
        workload=WorkloadConfig(read_fraction=0.0, conflict_rate=0.0,
                                records=200)))
    cluster.sim.run(until=sec(1.0))
    victim = next(iter(cluster.replicas.values()))
    before = log_rows(getattr(victim, LOGS[protocol]))
    assert len(before) > 50, "the run logged too little to check"
    victim.crash()
    victim.recover()
    log = getattr(victim, LOGS[protocol])
    after = log_rows(log)
    assert [(i, e.term, e.ballot, e.command) for i, e in after] == [
        (i, e.term, e.ballot, e.command) for i, e in before]
    assert all(got is want for (_, got), (_, want) in zip(after, before))
    assert all(log is not stored for stored in victim.stable.values())
