"""Hash-range partitioning."""

from array import array

import pytest

from repro.shard.partition import HASH_SPACE, HashRangePartitioner, key_point
from repro.workload.ycsb import WorkloadConfig


def test_ownership_is_stable_and_total():
    p = HashRangePartitioner(4)
    for key_id in range(200):
        key = WorkloadConfig.key_name(key_id)
        shard = p.shard_of(key)
        assert 0 <= shard < 4
        assert p.shard_of(key) == shard  # deterministic
        assert p.owns(shard, key)
        assert not any(p.owns(other, key) for other in range(4) if other != shard)


def test_ranges_tile_the_hash_space():
    p = HashRangePartitioner(3)
    ranges = [p.range_of(shard) for shard in range(3)]
    assert ranges[0].start == 0
    assert ranges[-1].stop == HASH_SPACE
    for left, right in zip(ranges, ranges[1:]):
        assert left.stop == right.start
    for key in ("hot", "k0", "k99999"):
        assert key_point(key) in ranges[p.shard_of(key)]


def test_uniform_keys_balance_across_shards():
    p = HashRangePartitioner(4)
    keys = [WorkloadConfig.key_name(i) for i in range(10_000)]
    counts = p.load_split(keys)
    assert sum(counts) == len(keys)
    for count in counts:
        assert 0.8 * len(keys) / 4 < count < 1.2 * len(keys) / 4


def test_predicate_matches_shard_of():
    p = HashRangePartitioner(2)
    owns_0 = p.predicate(0)
    for key_id in range(50):
        key = WorkloadConfig.key_name(key_id)
        assert owns_0(key) == (p.shard_of(key) == 0)


def test_single_shard_owns_everything():
    p = HashRangePartitioner(1)
    assert p.shard_of("anything") == 0
    assert p.range_of(0) == range(0, HASH_SPACE)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        HashRangePartitioner(0)
    with pytest.raises(ValueError):
        HashRangePartitioner(2).range_of(2)


def test_key_pools_equal_the_per_key_bucketing_and_hash_once(monkeypatch):
    """`TxnCluster`'s per-shard key pools: same keys in the same order as
    bucketing key by key through `shard_of` (clients index the pools with
    RNG draws), and the pass runs once per (records, ring boundaries).
    A pool holds key ids in a compact array, read through `key_name`."""
    from repro.shard import txn
    from repro.shard.partition import VersionedPartitioner, ring_point

    hashed = []

    def counting(key):
        hashed.append(key)
        return ring_point(key)

    monkeypatch.setattr(txn, "ring_point", counting)
    monkeypatch.setattr(txn, "_KEY_POOLS", {})
    records = 4_999
    for shards in (1, 3, 4):
        partitioner = VersionedPartitioner.initial(shards)
        pools = txn.key_pools(partitioner, records)
        reference = {shard: [] for shard in range(shards)}
        for key_id in range(records):
            key = WorkloadConfig.key_name(key_id)
            reference[partitioner.shard_of(key)].append(key)
        assert {shard: [WorkloadConfig.key_name(key_id) for key_id in pool]
                for shard, pool in pools.items()} == {
                    shard: keys for shard, keys in reference.items() if keys}
        assert all(isinstance(pool, array) and pool.itemsize <= 4
                   for pool in pools.values())
    assert len(hashed) == 3 * records
    # Same map, another cluster: shared pools, no hashing; its own dict.
    again = txn.key_pools(VersionedPartitioner.initial(4), records)
    assert len(hashed) == 3 * records
    assert again == pools and again is not pools
    assert all(again[shard] is pools[shard] for shard in pools)
    # The cached and the uncached point of a key are the same point.
    assert all(key_point(key) == ring_point(key) for key in hashed[:200])
