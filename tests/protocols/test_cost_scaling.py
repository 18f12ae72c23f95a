"""Cost contracts of the Raft*/PQL family, counted not timed (DESIGN.md §14).

Per-append and per-read host work must not grow with log length or
read-queue depth.  Every assertion here is a count of entries visited,
objects built or predicates evaluated — a reintroduced full-log walk or
per-queued-read re-test fails without any timing threshold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.protocols.raftstar as raftstar_module
from repro.protocols.messages import AppendEntries, CatchUpSnapshot
from repro.protocols.quorum_lease import PaxosPQLReplica, RaftStarPQLReplica
from repro.protocols.raft import Role
from repro.protocols.raftstar import RaftStarReplica
from repro.protocols.types import Command, Entry, OpType
from repro.sim.units import ms


# -- (a) the ballot rewrite is O(new entries) ------------------------------------


class CountingLog(list):
    """A log that counts every entry read out of it, by index, slice or
    iteration."""

    visits = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.visits += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.visits += 1
            yield item


def _visits_per_append(cluster, monkeypatch, prefill):
    """Grow every log to `prefill` entries through the real write path,
    then count what ONE more append visits on the leader
    (`_append_to_log`) and on a follower (`_try_append`), and how many
    `Entry` objects `raftstar` builds meanwhile."""
    leader, follower = cluster["s0"], cluster["s1"]
    while len(leader.log) < prefill:
        for _ in range(min(50, prefill - len(leader.log))):
            cluster.client.put("s0", "k", "v")
        cluster.run_ms(60)
    assert len(follower.log) == len(leader.log) == prefill
    for replica in (leader, follower):
        replica.log = CountingLog(replica.log)

    counted = {}

    def count(replica, method_name, label):
        method = getattr(replica, method_name)

        def wrapper(argument):
            before = replica.log.visits
            result = method(argument)
            if label not in counted and len(replica.log) > prefill:
                counted[label] = replica.log.visits - before
            return result

        monkeypatch.setattr(replica, method_name, wrapper)

    count(leader, "_append_to_log", "leader")
    count(follower, "_try_append", "follower")
    built = []
    monkeypatch.setattr(
        raftstar_module, "Entry",
        lambda **fields: built.append(fields) or Entry(**fields))
    command = cluster.client.put("s0", "k", "v")
    cluster.run_ms(60)
    assert cluster.client.reply_for(command).ok
    assert len(follower.log) == prefill + 1
    return counted["leader"], counted["follower"], len(built)


def test_append_visits_do_not_grow_with_log_length(cluster_factory, monkeypatch):
    short = _visits_per_append(
        cluster_factory(RaftStarReplica), monkeypatch, prefill=100)
    long = _visits_per_append(
        cluster_factory(RaftStarReplica), monkeypatch, prefill=800)
    assert short == long
    leader_visits, follower_visits, entries_built = long
    # One new entry examined on each side; steady state at an unchanged
    # term replaces nothing, so no Entry is built at all.
    assert leader_visits == 1
    assert follower_visits <= 2  # the new entry + the prev-term check
    assert entries_built == 0


# -- (b) a drain tests each waiting key once and the lease once -------------------


@pytest.mark.parametrize("replica_cls", [RaftStarPQLReplica, PaxosPQLReplica])
@pytest.mark.parametrize("hot_depth", [3, 40])
def test_drain_cost_is_per_key_not_per_queued_read(cluster_factory, monkeypatch,
                                                   replica_cls, hot_depth):
    other_keys = 4
    cluster = cluster_factory(replica_cls, config_kwargs=dict(
        lease_duration=ms(500), lease_renew_interval=ms(100)))
    cluster.run_ms(100)
    follower = cluster["s1"]
    blocked = follower.commit_index + 100
    keys = ["hot"] + [f"cold{i}" for i in range(other_keys)]
    for key in keys:
        follower._last_modified[key] = blocked
    # Interleave arrivals so arrival order is not grouping order.
    reads = [cluster.client.get("s1", "hot") for _ in range(hot_depth - 1)]
    reads += [cluster.client.get("s1", key) for key in keys[1:]]
    reads.append(cluster.client.get("s1", "hot"))
    cluster.run_ms(60)  # the follower's CPU model admits ~1 request per ms
    assert sum(len(q) for q in follower._pending_reads.values()) == len(reads)

    calls = {"ready": 0, "lease": 0}

    def counting(target, name, label):
        original = getattr(target, name)

        def wrapper(*args):
            calls[label] += 1
            return original(*args)

        monkeypatch.setattr(target, name, wrapper)

    counting(follower, "_key_ready", "ready")
    counting(follower.leases, "has_quorum_lease", "lease")

    follower._frontier_advanced()  # nothing is ready: everything keeps waiting
    assert calls == {"ready": len(keys), "lease": 1}
    assert cluster.client.replies == []

    for key in keys:
        follower._last_modified[key] = follower.commit_index
    calls.update(ready=0, lease=0)
    follower._frontier_advanced()  # everything is ready
    assert calls["ready"] == len(keys) and calls["lease"] <= 1
    assert not follower._pending_reads
    cluster.run_ms(20)
    # Service order is arrival order, across key groups.
    assert ([reply.request_id for _, _, reply in cluster.client.replies]
            == [read.request_id for read in reads])


# -- (c) the watermark says what the naive full rewrite says ----------------------


class NaiveRaftStar(RaftStarReplica):
    """Reference model: Figure 2b lines 6-7 transcribed literally — every
    append walks the whole log."""

    def _rewrite_ballots(self, term: int) -> None:
        log = self.log
        for index, entry in enumerate(log):
            if entry.ballot != term:
                log[index] = Entry(term=entry.term, command=entry.command,
                                   ballot=term)


def _command(seq):
    return Command(op=OpType.PUT, key=f"k{seq % 3}", value="v",
                   client_id="prop", seq=seq)


def _entries(terms, seq):
    return [Entry(term=term, command=_command(seq + i), ballot=ballot)
            for i, (term, ballot) in enumerate(terms)]


TERM_PAIRS = st.lists(st.tuples(st.integers(0, 6), st.integers(-1, 6)),
                      min_size=1, max_size=4)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("leader_append")),
    st.tuples(st.just("follower_append"), st.integers(0, 5), TERM_PAIRS,
              st.integers(0, 2), st.booleans()),
    st.tuples(st.just("term_change"), st.integers(1, 2)),
    st.tuples(st.just("merge_extras"), st.integers(0, 3), TERM_PAIRS),
    st.tuples(st.just("catch_up"), TERM_PAIRS),
    st.tuples(st.just("crash_recover"), st.integers(0, 3)),
), max_size=14)


def _apply_step(replica, step, seq):
    kind = step[0]
    if kind == "leader_append":
        replica.role = Role.LEADER
        replica._append_to_log(_command(seq))
    elif kind == "follower_append":
        # Overwrites up to `back` entries below the end of the log; with
        # `cover` the batch is stretched to reach the end, otherwise it
        # may stop short of it (the longer-log reject).
        _, back, terms, term_bump, cover = step
        replica.role = Role.FOLLOWER
        replica.current_term += term_bump
        prev = max(-1, replica.last_index - back)
        if cover and len(terms) < replica.last_index - prev:
            terms = terms + [terms[-1]] * (replica.last_index - prev - len(terms))
        replica._try_append(AppendEntries(
            term=replica.current_term, leader="s0",
            prev_index=prev, prev_term=replica.term_at(prev),
            entries=_entries(terms, seq), leader_commit=-1))
    elif kind == "term_change":
        replica.current_term += step[1]
    elif kind == "merge_extras":
        _, gap, terms = step
        first = replica.last_index + 1 + gap
        replica._pending_extras = dict(enumerate(_entries(terms, seq), first))
        replica._merge_safe_entries()
    elif kind == "catch_up":
        replica._on_catch_up("s0", CatchUpSnapshot(
            sender="s0", entries=tuple(_entries(step[1], seq)),
            commit_index=-1, term=replica.current_term))
    elif kind == "crash_recover":
        # The durable log may come back shorter than the volatile one was
        # (a storage model that loses an unsynced suffix): the watermark
        # must not outlive the log it described.
        replica.crash()
        durable = replica.stable["log"]
        del durable[max(0, len(durable) - step[1]):]
        replica.recover()


def _state(replica):
    return [(entry.term, entry.ballot, entry.command) for entry in replica.log]


@settings(max_examples=150, deadline=None)
@given(steps=STEPS)
def test_watermark_matches_naive_full_rewrite(steps):
    from tests.protocols.conftest import MiniCluster  # a fixture-free builder

    fast = MiniCluster(RaftStarReplica)["s1"]
    naive = MiniCluster(NaiveRaftStar)["s1"]
    for seq, step in enumerate(steps):
        _apply_step(fast, step, seq * 10)
        _apply_step(naive, step, seq * 10)
        assert _state(fast) == _state(naive), step
        assert fast._ballot_upto <= len(fast.log)
        assert all(entry.ballot == fast._ballot_term
                   for entry in fast.log[:fast._ballot_upto])
