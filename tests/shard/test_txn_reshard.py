"""Transactional load across a live reshard — the ROADMAP gap "txn +
reshard individually hardened but not yet tested together", closed.

A `TxnCluster` serving 2-op transactions (half of them cross-shard 2PC)
splits 2 -> 4 groups mid-run.  The composition has teeth both ways:

* migration must respect 2PC — `MIGRATE_OUT` refuses (deterministically,
  as replicated state) while a prepared transaction holds locks in the
  range, because exporting under a voted participant would strand its
  staged writes on a group that no longer owns them (the ghost-write the
  pinned store test below exercises directly);
* 2PC must respect migration — prepares for exported keys vote no, the
  coordinator retries under the refreshed map, and retried/duplicated
  steps stay at-most-once because the dedup sessions (and the per-key
  install orders the strict-serializability checker anchors on) travel
  with the range.

Every seed must uphold the full client-visible contract across the epoch
change: strict serializability, zero lost/duplicated acks, zero
re-executed writes, no orphan locks.
"""

import dataclasses
import json
import os

import pytest

from repro.kvstore.store import KVStore
from repro.protocols.types import Command, OpType
from repro.shard.txn import TxnCluster, TxnSpec
from repro.sim.units import sec
from repro.workload.ycsb import WorkloadConfig

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
SEEDS = range(6)

# Phase-2 drain after the horizon: a lost-message sweep plus a
# coordinator failover (lease expiry and the janitor's sweep).
DRAIN_S = 3.0

WORKLOAD = WorkloadConfig(read_fraction=0.5, conflict_rate=0.0, records=500,
                          value_size=64)


def txn_reshard_spec(seed: int) -> TxnSpec:
    return TxnSpec(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=max(2, round(2 * SCALE / 0.3)),
        workload=WORKLOAD,
        duration_s=max(9.0, 9.0 * SCALE / 0.3),
        warmup_s=1.0, cooldown_s=0.5, seed=seed,
        check_history=True, txn_size=2, cross_shard_ratio=0.6,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_txn_load_across_live_reshard_stays_strictly_serializable(seed):
    spec = txn_reshard_spec(seed)
    cluster = TxnCluster(spec)
    # Split while 2PC traffic is in full flight (after warm-up, well
    # before cool-down, so prepares straddle the migration both ways).
    cluster.reshard(4, at=sec(3.0))
    result = cluster.run()

    # The migration completed under transactional load and the routing
    # epoch advanced everywhere.
    assert cluster.reshard_completed_at is not None
    assert cluster.router.epoch == 1
    assert len(cluster.groups) == 4

    # The load really was transactional AND cross-shard: at least 30% of
    # the issued transactions ran 2PC through the coordinators.
    issued = result.single_shard + result.cross_shard
    assert issued > 0
    assert result.cross_shard >= 0.3 * issued
    assert result.commits_2pc > 0
    assert result.committed_total > 0

    # The contract, across the epoch change:
    assert result.serializability_violations == []
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert all(not v for v in result.prefix_violations.values())

    # The ghost-write detector with teeth: every acknowledged
    # transactional write must appear in its key's FINAL-owner install
    # order.  An export racing a voted participant would strand the
    # staged write on the donor (installed where nobody reads), and this
    # — not the cycle checker — is what catches it.
    assert lost_installs(cluster) == []
    # No orphan locks: once phase 2 has drained, nothing is locked.  (At
    # the horizon a client can hold locks for two transactions — the one
    # answered at its commit point, still in phase 2, and its next — so
    # the count there is no orphan test.)
    assert cluster.locks_left() == 0


def lost_installs(cluster, drain_s: float = DRAIN_S):
    """(txn id, key, value) of every transactional write acknowledged by
    the horizon that is not in its key's final-owner install order once
    phase 2 has had `drain_s` more to finish (the client is answered at
    the commit point, before `TXN_COMMIT` applies)."""
    acked = list(cluster.txn_events)
    cluster.sim.run(until=sec(cluster.spec.duration_s + drain_s))
    orders = cluster.write_orders()
    return [(event.txn_id, key, value)
            for event in acked
            for op, key, value in event.ops
            if op == "put" and value not in orders.get(key, [])]


@pytest.mark.parametrize("seed", range(3))
def test_all_cross_shard_load_follows_the_range_it_lost(seed):
    """With every transaction 2PC, no single-shard redirect ever refreshes
    the shared routing table: a participant's wrong-shard vote must ship
    its partition map, or the coordinators re-prepare against the old
    owner forever (they stalled at ~85 commits, routing epoch 0)."""
    spec = dataclasses.replace(txn_reshard_spec(seed), cross_shard_ratio=1.0)
    cluster = TxnCluster(spec)
    cluster.reshard(4, at=sec(3.0))
    result = cluster.run()

    assert cluster.reshard_completed_at is not None
    assert cluster.router.epoch == 1
    assert result.single_shard == 0
    after = [event for event in cluster.txn_events
             if event.start >= cluster.reshard_completed_at]
    assert len(after) >= 0.3 * result.committed_total
    assert result.safe
    assert lost_installs(cluster) == []


def migrate_out(lo: int, hi: int, seq: int = 1) -> Command:
    import json

    value = json.dumps({"lo": lo, "hi": hi, "epoch": 1, "num_shards": 4},
                       sort_keys=True)
    return Command(op=OpType.MIGRATE_OUT, key=f"reshard:{lo}", value=value,
                   client_id="__reshard__", seq=seq, value_size=len(value))


def prepare(handle: str, key: str, ts: int = 5, seq: int = 1) -> Command:
    import json

    value = json.dumps({"handle": handle, "txn": "c:1", "coord": "co",
                        "inc": 0, "ts": ts, "ops": [["put", key, "v"]],
                        "participants": [0, 1], "home": 0}, sort_keys=True)
    return Command(op=OpType.TXN_PREPARE, key=f"txn:{handle}", value=value,
                   client_id=f"__txn__:{handle}", seq=seq,
                   value_size=len(value))


def finish(handle: str, commit: bool, seq: int) -> Command:
    import json

    value = json.dumps({"handle": handle}, sort_keys=True)
    op = OpType.TXN_COMMIT if commit else OpType.TXN_ABORT
    return Command(op=op, key=f"txn:{handle}", value=value,
                   client_id=f"__txn__:{handle}", seq=seq,
                   value_size=len(value))


def test_migrate_out_waits_for_prepared_locks_in_range():
    """The store-level pin: an export overlapping a prepared lock refuses
    with a (non-dedup-recorded) conflict until phase 2 releases it — so a
    committed transaction's staged write can never be stranded on the
    donor as a ghost the recipient never imports."""
    from repro.shard.partition import HASH_SPACE, key_point

    store = KVStore(key_filter=lambda key: True)  # a shard member
    key = "k7"
    store.apply(Command(op=OpType.PUT, key=key, value="v0",
                        client_id="c", seq=1))
    vote = store.apply(prepare("h1", key))
    assert "yes" in (vote.value or "")

    # Export of the locked key's whole ring: refused, lock intact.
    blocked = store.apply(migrate_out(0, HASH_SPACE, seq=2))
    assert not blocked.ok and blocked.conflict
    assert store.locked_keys() == {key: "h1"}
    assert store.read_local(key) == "v0"

    # The SAME (client, seq) retried after phase 2 must actually apply —
    # the refusal did not burn the dedup slot.
    store.apply(finish("h1", commit=True, seq=2))
    assert store.read_local(key) == "v"
    export = store.apply(migrate_out(0, HASH_SPACE, seq=2))
    assert export.ok

    # The committed write left with the range — table, versions, AND the
    # install order the serializability checker reads.
    import json

    payload = json.loads(export.value)
    assert payload["table"][key] == "v"
    assert payload["write_log"][key] == ["v0", "v"]
    assert store.version(key) == 0
    assert store.write_order(key) == []

    # A disjoint range migrates regardless of the lock.
    store2 = KVStore()
    store2.apply(prepare("h2", key))
    point = key_point(key)
    lo, hi = (0, point) if point else (point + 1, HASH_SPACE)
    assert store2.apply(migrate_out(lo, hi, seq=1)).ok


def test_refused_export_fences_new_prepares_until_it_lands():
    """A refused export fences the range: NEW prepares die ("migrating")
    so the held locks can drain instead of a steady 2PC stream re-locking
    the range forever — while plain writes keep being served.  The fence
    lifts when the export finally applies."""
    from repro.shard.partition import HASH_SPACE

    store = KVStore()
    store.apply(prepare("h1", "k7"))
    blocked = store.apply(migrate_out(0, HASH_SPACE, seq=2))
    assert blocked.conflict

    # New prepare on a DIFFERENT key in the fenced range: dies.
    vote = store.apply(prepare("h2", "k8", ts=9, seq=1))
    assert json.loads(vote.value)["vote"] == "no"
    assert json.loads(vote.value)["reason"] == "migrating"
    # Plain data ops are unaffected by the fence.
    assert store.apply(Command(op=OpType.PUT, key="k8", value="w",
                               client_id="c3", seq=1)).ok

    # Lock drains -> the retried export applies and lifts the fence.
    store.apply(finish("h1", commit=True, seq=2))
    assert store.apply(migrate_out(0, HASH_SPACE, seq=2)).ok
    assert not store._migrate_fences


def test_refused_export_does_not_flip_ownership():
    """The replica-level pin: a lock-refused MIGRATE_OUT is skipped by the
    apply hooks, so `ShardOwnership` does not subtract a range the donor
    still holds — the group keeps serving every unlocked key in it until
    the export actually happens."""
    from repro.protocols.base import ReplicaBase
    from repro.protocols.config import single_site_cluster
    from repro.protocols.types import Entry
    from repro.shard.partition import HASH_SPACE, VersionedPartitioner
    from repro.shard.reshard import ShardOwnership
    from repro.sim.events import Simulator
    from repro.sim.network import Network
    from repro.sim.topology import symmetric_lan

    class Applier(ReplicaBase):
        def submit_command(self, command):  # pragma: no cover - unused
            pass

        def leader_hint(self):  # pragma: no cover - unused
            return None

    sim = Simulator()
    replica = Applier("s0", sim, Network(sim, symmetric_lan(1)),
                      single_site_cluster(1))
    ownership = ShardOwnership(0, VersionedPartitioner.initial(1))
    replica.store.set_key_filter(ownership.owns_key)
    replica.on_apply_hooks.append(ownership.on_apply)

    replica.apply_entry(0, Entry(term=1, command=prepare("h1", "k7")))
    replica.apply_entry(1, Entry(term=1, command=migrate_out(0, HASH_SPACE)))
    # Refused: ownership intact, unlocked keys still served.
    assert ownership.owns_key("other")
    put = Command(op=OpType.PUT, key="other", value="v",
                  client_id="c2", seq=1)
    replica.apply_entry(2, Entry(term=1, command=put))
    assert replica.store.read_local("other") == "v"
    assert replica.store.filtered_count == 0

    # Once phase 2 releases the lock, the export applies and ownership
    # flips at THAT position.
    replica.apply_entry(3, Entry(term=1, command=finish("h1", commit=True,
                                                        seq=2)))
    replica.apply_entry(4, Entry(term=1, command=migrate_out(0, HASH_SPACE,
                                                             seq=2)))
    assert not ownership.owns_key("other")


def test_import_prepends_migrated_write_log():
    store = KVStore(key_filter=lambda key: True)  # a shard member
    store.import_range({"table": {"k": "b"}, "versions": {"k": 2},
                        "write_log": {"k": ["a", "b"]}})
    store.apply(Command(op=OpType.PUT, key="k", value="c",
                        client_id="c", seq=1))
    assert store.write_order("k") == ["a", "b", "c"]
    assert store.version("k") == 3


def test_rotated_retry_after_the_home_range_moved_executes_once():
    """The client's reply from one coordinator is lost, the home key's
    range then moves in a 2 -> 4 reshard, and the client's retry reaches
    another coordinator, which starts a fresh attempt under the new map.
    The home shard's commit record moved with the key, so the attempt
    meets it and is answered from it: one install per key, and the
    retry's answer carries the first attempt's reads."""
    from repro.protocols.messages import ShardMap
    from repro.shard.partition import HashRangePartitioner
    from tests.shard.test_txn import (drop_first_reply, find_key,
                                      manual_client, replies_seen)

    cluster = TxnCluster(dataclasses.replace(
        txn_reshard_spec(0), clients_per_region=0, duration_s=12.0))
    after = HashRangePartitioner(4)
    key0 = next(f"k{i}" for i in range(10_000)
                if cluster.partitioner.shard_of(f"k{i}") == 0
                and after.shard_of(f"k{i}") != 0)
    key1 = find_key(cluster, 1)
    client = manual_client(cluster, site="ohio")
    replies = replies_seen(client)
    dropped = drop_first_reply(client)
    cluster.sim.schedule(sec(0.01), client.transact,
                         [("put", key0, "v0"), ("get", key1, None),
                          ("put", key1, "v1")])
    cluster.reshard(4, at=sec(1.5))
    cluster.sim.run(until=sec(4.0))
    assert [r.server for r in dropped] == ["txnco_ohio"]
    assert cluster.reshard_completed_at is not None
    assert cluster.partitioner.shard_of(key0) != 0  # the home key moved

    cluster.router.refresh(ShardMap(epoch=1, num_shards=4))
    (pending,) = client._txn_pending.values()
    client.send("txnco_oregon", pending.request)
    cluster.sim.run(until=sec(8.0))

    assert [r.server for r in replies] == ["txnco_oregon"]
    assert replies[0].reads == dropped[0].reads == {key1: None}
    assert client.txns_committed == 1
    orders = cluster.write_orders()
    assert orders[key0] == ["v0"] and orders[key1] == ["v1"]
    assert cluster.locks_left() == 0
