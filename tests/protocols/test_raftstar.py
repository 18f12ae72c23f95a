"""Raft*: the two differences from Raft (§3) at the implementation level."""

import pytest

from repro.protocols.messages import AppendEntries
from repro.protocols.raft import RaftReplica, Role
from repro.protocols.raftstar import RaftStarReplica
from repro.protocols.types import Command, Entry, OpType


def _entry(term, key="k", value="v"):
    return Entry(term=term, command=Command(op=OpType.PUT, key=key, value=value,
                                            client_id="t", seq=1), ballot=term)


def test_basic_replication_works(cluster_factory):
    cluster = cluster_factory(RaftStarReplica)
    cluster.run_ms(5)
    cmd = cluster.client.put("s0", "k", "v")
    cluster.run_ms(100)
    assert cluster.client.reply_for(cmd).ok


def test_ballots_rewritten_on_append(cluster_factory):
    """Difference 2: every append stamps all entries' ballots with the
    current term (MultiPaxos overwrite semantics)."""
    cluster = cluster_factory(RaftStarReplica)
    cluster.run_ms(5)
    for i in range(3):
        cluster.client.put("s0", f"k{i}", "v")
    cluster.run_ms(200)
    for replica in cluster.values():
        assert all(entry.ballot == replica.current_term for entry in replica.log)


def test_follower_rejects_shorter_append(cluster_factory):
    """Difference 1 (follower side): a longer log rejects instead of erasing."""
    cluster = cluster_factory(RaftStarReplica)
    cluster.run_ms(5)
    follower = cluster["s1"]
    follower.log = [_entry(1), _entry(1), _entry(1)]
    msg = AppendEntries(term=1, leader="s0", prev_index=-1, prev_term=-1,
                        entries=[_entry(1)], leader_commit=-1)
    success, match = follower._try_append(msg)
    assert not success
    assert match == 2  # reports its longer length
    assert len(follower.log) == 3  # nothing erased


def test_raft_erases_where_raftstar_rejects(cluster_factory):
    """Contrast with plain Raft, which erases the conflicting suffix."""
    cluster = cluster_factory(RaftReplica)
    cluster.run_ms(5)
    follower = cluster["s1"]
    follower.log = [_entry(1), _entry(2), _entry(2)]
    msg = AppendEntries(term=3, leader="s0", prev_index=0, prev_term=1,
                        entries=[_entry(3)], leader_commit=-1)
    success, match = follower._try_append(msg)
    assert success
    assert [e.term for e in follower.log] == [1, 3]  # suffix erased


def test_empty_heartbeat_not_rejected_by_longer_log(cluster_factory):
    cluster = cluster_factory(RaftStarReplica)
    cluster.run_ms(5)
    follower = cluster["s1"]
    follower.log = [_entry(1), _entry(1)]
    msg = AppendEntries(term=1, leader="s0", prev_index=0, prev_term=1,
                        entries=[], leader_commit=-1)
    success, match = follower._try_append(msg)
    assert success and match == 0


def test_vote_reply_carries_extra_entries(cluster_factory):
    """Difference 1 (voter side): extras beyond the candidate's log ride on
    the vote reply (Figure 2a lines 14-16)."""
    cluster = cluster_factory(RaftStarReplica)
    cluster.run_ms(5)
    voter = cluster["s1"]
    voter.log = [_entry(1, key="a"), _entry(1, key="b")]
    extras = voter._vote_extras(candidate_last_index=0)
    assert set(extras) == {1}
    assert extras[1].command.key == "b"


def test_new_leader_merges_safe_entries(cluster_factory):
    """A candidate with a shorter log adopts the voters' extra entries —
    the Paxos Phase1Succeed behaviour Raft lacks."""
    cluster = cluster_factory(RaftStarReplica)
    cluster.run_ms(5)
    cluster.client.put("s0", "k1", "v1")
    cluster.client.put("s0", "k2", "v2")
    cluster.run_ms(100)
    baseline = len(cluster["s1"].log)
    assert baseline >= 2
    cluster["s0"].crash()
    cluster.run_ms(900)
    new_leader = next(r for r in cluster.values() if r.alive and r.role is Role.LEADER)
    assert len(new_leader.log) >= baseline
    keys = {e.command.key for e in new_leader.log}
    assert {"k1", "k2"} <= keys


def test_merged_entries_stamped_with_new_term(cluster_factory):
    cluster = cluster_factory(RaftStarReplica)
    cluster.run_ms(5)
    cluster.client.put("s0", "k", "v")
    cluster.run_ms(100)
    cluster["s0"].crash()
    cluster.run_ms(900)
    new_leader = next(r for r in cluster.values() if r.alive and r.role is Role.LEADER)
    cluster.run_ms(200)
    assert all(entry.ballot == new_leader.current_term for entry in new_leader.log)


def test_commit_without_current_term_restriction(cluster_factory):
    """Raft* commits any majority-replicated index — no §5.4.2 rule."""
    cluster = cluster_factory(RaftStarReplica)
    leader = cluster["s0"]
    leader.log.append(_entry(0))  # old-term entry
    assert leader._commit_gate(leader.last_index) == leader.last_index


def test_raft_has_current_term_restriction(cluster_factory):
    cluster = cluster_factory(RaftReplica)
    cluster.run_ms(5)
    leader = cluster["s0"]
    leader.log.append(_entry(0))  # old-term entry
    assert leader._commit_gate(leader.last_index) < leader.last_index


def test_committed_survive_failover_raftstar(cluster_factory):
    cluster = cluster_factory(RaftStarReplica)
    cluster.run_ms(5)
    cmd = cluster.client.put("s0", "key", "must-survive")
    cluster.run_ms(150)
    assert cluster.client.reply_for(cmd).ok
    cluster["s0"].crash()
    cluster.run_ms(900)
    for replica in cluster.values():
        if replica.alive and replica.role is Role.LEADER:
            assert replica.store.read_local("key") == "must-survive"
            break
    else:
        pytest.fail("no leader elected")
