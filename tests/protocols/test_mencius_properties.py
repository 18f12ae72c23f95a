"""Property-based tests on Mencius' index arithmetic and safety under
randomized multi-owner traffic."""

from hypothesis import given, settings, strategies as st

from repro.kvstore.checker import HistoryChecker
from repro.protocols import config as config_module
from repro.protocols.config import single_site_cluster
from repro.protocols.mencius import STATUS_SKIPPED, RaftStarMenciusReplica
from repro.protocols.types import Command, Entry, OpType
from repro.sim.units import ms


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=7))
def test_ownership_partition(index, n):
    """Every index has exactly one owner; ownership is periodic."""
    cfg = single_site_cluster(n)
    owner = cfg.owner_of(index)
    assert owner == cfg.names[index % n]
    assert cfg.owner_of(index + n) == owner
    assert sum(1 for name in cfg.names if cfg.owned_by(name, index)) == 1


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2))
def test_next_owned_at_or_above(start, rank):
    """The next owned index is the least owned index >= start."""
    from tests.protocols.conftest import MiniCluster

    cluster = MiniCluster(RaftStarMenciusReplica, leader=None)
    replica = cluster[f"s{rank}"]
    result = replica._my_next_owned_at_or_above(start)
    assert result >= start
    assert result % 3 == rank
    assert result - 3 < start  # least such index


@given(st.integers(min_value=1, max_value=7), st.data())
def test_owned_slot_scan_equals_filtered_range_scan(n, data):
    """For any (n, rank, old, bound, held indexes) the arithmetic
    progression marks exactly the slots the filtered `range(old, bound)`
    scan marked, in the same order."""
    rank = data.draw(st.integers(min_value=0, max_value=n - 1))
    old = data.draw(st.integers(min_value=0, max_value=90))
    bound = data.draw(st.integers(min_value=0, max_value=120))
    held = data.draw(st.sets(st.integers(min_value=0, max_value=120)))
    filtered = [index for index in range(old, bound)
                if index % n == rank and index not in held]
    slots = single_site_cluster(n).slots_of(f"s{rank}", old, bound)
    progression = [index for index in slots if index not in held]
    assert progression == filtered


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=60),
       st.sets(st.integers(min_value=0, max_value=60)),
       st.integers(min_value=0, max_value=60))
def test_frontier_and_skip_scans_mark_what_the_filtered_scans_marked(
        me, owner, old, bound, held, since):
    """The same property through the replica: `_note_frontier` for a peer
    and `_maybe_skip_past` for ourselves, from an arbitrary prior frontier
    over an arbitrary set of already-held indexes.  A `since` above the
    recorded frontier (a lost broadcast) marks nothing but still advances
    the frontier."""
    from tests.protocols.conftest import MiniCluster

    cluster = MiniCluster(RaftStarMenciusReplica, leader=None)
    replica = cluster[f"s{me}"]
    put = Command(op=OpType.PUT, key="k", value="v", client_id="c", seq=1)
    for index in held:
        replica.entries[index] = Entry(term=0, command=put, ballot=0)
    name = f"s{owner}"
    replica.frontier[name] = old
    replica._note_frontier(name, bound, since)
    marked = sorted(i for i, s in replica.status.items() if s == STATUS_SKIPPED)
    assert marked == [i for i in range(old, bound)
                      if i % 3 == owner and i not in held and since <= old]
    assert replica.frontier[name] == max(old, bound)

    # Our own turn: observing `bound` in use skips our unused slots below it.
    replica.status.clear()
    for index in marked:
        del replica.entries[index]
    start = replica.next_own
    replica._maybe_skip_past(bound)
    mine = sorted(i for i, s in replica.status.items() if s == STATUS_SKIPPED)
    assert mine == [i for i in range(start, bound + 1)
                    if i % 3 == me and i not in held]
    assert replica.next_own > bound and replica.next_own % 3 == me


def test_frontier_scan_visits_only_the_owners_slots():
    """Counted, not timed: a frontier jump over k*n indexes probes k slots
    (the owner's), not k*n."""
    from tests.protocols.conftest import MiniCluster

    class CountingDict(dict):
        probes = 0

        def __contains__(self, key):
            CountingDict.probes += 1
            return dict.__contains__(self, key)

    cluster = MiniCluster(RaftStarMenciusReplica, n=5, leader=None)
    replica = cluster["s0"]
    replica.entries = CountingDict()
    k, n = 40, 5
    old = replica.frontier["s3"]
    replica._note_frontier("s3", 3 + k * n, since=old)
    assert CountingDict.probes == k
    assert len(replica.entries) == k
    assert all(index % n == 3 for index in replica.entries)
    # Nothing new below the frontier: no scan at all.
    replica._note_frontier("s3", 3 + k * n, since=old)
    assert CountingDict.probes == k


def test_config_builds_its_name_tuple_once(monkeypatch):
    """`names`/`n`/`f`/`majority`/`ranks` are values fixed at construction:
    per-message readers (`owner_of`) allocate nothing."""
    built = []

    def counting_tuple(iterable=()):
        built.append(1)
        return tuple(iterable)

    monkeypatch.setattr(config_module, "tuple", counting_tuple, raising=False)
    cfg = single_site_cluster(5)
    assert built == [1]
    for index in range(1000):
        assert cfg.owner_of(index) == f"s{index % 5}"
        assert cfg.names[index % 5] == f"s{index % 5}"
    assert (cfg.n, cfg.majority) == (5, 3)
    assert cfg.ranks == {f"s{i}": i for i in range(5)}
    assert built == [1]


@settings(deadline=None, max_examples=10)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                          st.integers(min_value=0, max_value=9)),
                min_size=1, max_size=12),
       st.integers(min_value=0, max_value=3))
def test_random_traffic_preserves_prefix_agreement(ops, seed):
    """Random interleavings of client writes at random replicas never make
    applied logs diverge."""
    from tests.protocols.conftest import MiniCluster

    cluster = MiniCluster(
        RaftStarMenciusReplica, leader=None, seed=seed,
        replica_kwargs={"execution_mode": "ordered"},
        config_kwargs={"skip_interval": ms(10)},
    )
    checker = HistoryChecker()
    for replica in cluster.values():
        replica.on_apply_hooks.append(checker.record_apply)
    cluster.run_ms(5)
    for target, key in ops:
        cluster.client.put(f"s{target}", f"k{key}", f"v{len(checker.events)}")
        cluster.run_ms(15)
    cluster.run_ms(500)
    assert checker.check_prefix_agreement() == []
