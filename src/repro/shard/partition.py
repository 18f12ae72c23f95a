"""Key-space partitioning.

Shards own contiguous ranges of a hashed key space: a key is hashed to a
point in [0, 2^32) and the point space is split into `num_shards` equal
ranges.  Hashing first (rather than range-partitioning raw key ids) gives
every shard an equal slice of a uniform workload regardless of how clients
draw keys, which is the property the scaling benchmarks rely on.

The hash is content-derived (sha1), not Python's builtin `hash`, so shard
ownership is stable across processes and seeds — a router and a server
computing ownership independently always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.sim.sha import sha1 as _sha1

HASH_SPACE = 1 << 32


# key -> ring point, filled on first sight.  Workloads draw from a bounded
# keyspace, and routers/stores hash the same keys over and over (every
# routing decision and every ownership check), so the sha1 runs once per
# distinct key per process.
_POINT_CACHE: dict = {}


_from_bytes = int.from_bytes


def ring_point(key: str) -> int:
    """A key's stable point on the hash ring, computed (not cached): for
    one-pass bulk builds over keys most of which are never routed."""
    return _from_bytes(_sha1(key.encode()).digest()[:4], "big")


def key_point(key: str) -> int:
    """Map a key to its stable point on the hash ring."""
    point = _POINT_CACHE.get(key)
    if point is None:
        point = _POINT_CACHE[key] = ring_point(key)
    return point


class Partitioner:
    """Interface: ownership of keys by shard id (0..num_shards-1)."""

    num_shards: int

    def shard_of(self, key: str) -> int:
        raise NotImplementedError

    def owns(self, shard: int, key: str) -> bool:
        return self.shard_of(key) == shard

    def predicate(self, shard: int) -> Callable[[str], bool]:
        """A key filter bound to `shard` (for `KVStore.set_key_filter`)."""
        return lambda key: self.shard_of(key) == shard


class HashRangePartitioner(Partitioner):
    """Equal hash-ranges: shard i owns points [i*span, (i+1)*span)."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards
        self._span = HASH_SPACE // num_shards

    def shard_of_point(self, point: int) -> int:
        # The last shard absorbs the remainder of the hash space.
        return min(point // self._span, self.num_shards - 1)

    def shard_of(self, key: str) -> int:
        return self.shard_of_point(key_point(key))

    def range_of(self, shard: int) -> range:
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range")
        start = shard * self._span
        end = HASH_SPACE if shard == self.num_shards - 1 else start + self._span
        return range(start, end)

    def load_split(self, keys: Sequence[str]) -> List[int]:
        """How many of `keys` each shard owns (balance diagnostic)."""
        counts = [0] * self.num_shards
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts


# ---------------------------------------------------------------------------
# Epoch-versioned maps and N -> M transition plans (live resharding)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeMove:
    """One migration step of a transition plan: the half-open hash range
    [start, end) leaves `donor`'s group and joins `recipient`'s."""

    donor: int
    recipient: int
    start: int
    end: int


def plan_transition(old: HashRangePartitioner,
                    new: HashRangePartitioner) -> List[RangeMove]:
    """The minimal set of range moves turning `old` ownership into `new`.

    Both maps cut the hash ring into equal ranges; overlaying the two cut
    sets yields segments with a single owner under each map.  Segments
    whose owner changes become moves; adjacent segments with the same
    (donor, recipient) pair are coalesced.  N == M yields an empty plan,
    and the plan works in both directions (split and merge).
    """
    cuts = sorted({0, HASH_SPACE}
                  | {old.range_of(s).start for s in range(old.num_shards)}
                  | {new.range_of(s).start for s in range(new.num_shards)})
    moves: List[RangeMove] = []
    for start, end in zip(cuts, cuts[1:]):
        donor = old.shard_of_point(start)
        recipient = new.shard_of_point(start)
        if donor == recipient:
            continue
        if (moves and moves[-1].donor == donor
                and moves[-1].recipient == recipient
                and moves[-1].end == start):
            moves[-1] = RangeMove(donor, recipient, moves[-1].start, end)
        else:
            moves.append(RangeMove(donor, recipient, start, end))
    return moves


class VersionedPartitioner(Partitioner):
    """An epoch-stamped partition map.

    Every reshard advances the epoch by one; routers and replicas compare
    epochs to decide who is stale, and a server ahead of a client ships the
    newer map (`ShardMap`) instead of just a shard id.
    """

    def __init__(self, inner: HashRangePartitioner, epoch: int = 0) -> None:
        self.inner = inner
        self.epoch = epoch
        self.num_shards = inner.num_shards

    @classmethod
    def initial(cls, num_shards: int) -> "VersionedPartitioner":
        return cls(HashRangePartitioner(num_shards), epoch=0)

    def shard_of(self, key: str) -> int:
        return self.inner.shard_of(key)

    def shard_of_point(self, point: int) -> int:
        return self.inner.shard_of_point(point)

    def range_of(self, shard: int) -> range:
        return self.inner.range_of(shard)

    def advanced(self, new_num_shards: int
                 ) -> Tuple["VersionedPartitioner", List[RangeMove]]:
        """The next-epoch map for `new_num_shards` groups plus the
        transition plan from this map to it."""
        target = VersionedPartitioner(HashRangePartitioner(new_num_shards),
                                      epoch=self.epoch + 1)
        return target, plan_transition(self.inner, target.inner)


# -- owned-range set algebra (per-replica ownership during a transition) -----


def add_range(ranges: List[Tuple[int, int]], lo: int, hi: int
              ) -> List[Tuple[int, int]]:
    """`ranges` (sorted, disjoint, half-open) with [lo, hi) merged in."""
    merged: List[Tuple[int, int]] = []
    for a, b in sorted(ranges + [(lo, hi)]):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def subtract_range(ranges: List[Tuple[int, int]], lo: int, hi: int
                   ) -> List[Tuple[int, int]]:
    """`ranges` with every point in [lo, hi) removed."""
    out: List[Tuple[int, int]] = []
    for a, b in ranges:
        if b <= lo or a >= hi:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, lo))
        if b > hi:
            out.append((hi, b))
    return out


def ranges_contain(ranges: List[Tuple[int, int]], point: int) -> bool:
    return any(a <= point < b for a, b in ranges)
