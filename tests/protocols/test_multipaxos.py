"""MultiPaxos runnable implementation."""

import pytest

from repro.protocols.messages import Accept, Accepted, Learn
from repro.protocols.multipaxos import MultiPaxosReplica
from repro.protocols.quorum_lease import PaxosPQLReplica
from repro.protocols.types import Ballot


def test_seeded_leader_proposes_and_commits(cluster_factory):
    cluster = cluster_factory(MultiPaxosReplica)
    cluster.run_ms(5)
    cmd = cluster.client.put("s0", "k", "v")
    cluster.run_ms(100)
    assert cluster.client.reply_for(cmd).ok
    assert cluster["s0"].store.read_local("k") == "v"


def test_commit_frontier_propagates_to_acceptors(cluster_factory):
    cluster = cluster_factory(MultiPaxosReplica)
    cluster.run_ms(5)
    cluster.client.put("s0", "k", "v")
    cluster.run_ms(300)
    for replica in cluster.values():
        assert replica.commit_index >= 0
        assert replica.store.read_local("k") == "v"


def test_follower_forwards(cluster_factory):
    cluster = cluster_factory(MultiPaxosReplica)
    cluster.run_ms(5)
    cmd = cluster.client.put("s2", "k", "fwd")
    cluster.run_ms(200)
    assert cluster.client.reply_for(cmd).ok


def test_instances_dense_under_single_leader(cluster_factory):
    cluster = cluster_factory(MultiPaxosReplica)
    cluster.run_ms(5)
    for i in range(6):
        cluster.client.put("s0", f"k{i}", f"v{i}")
    cluster.run_ms(300)
    leader = cluster["s0"]
    assert leader.commit_index == leader.last_index
    assert set(leader.instances) == set(range(leader.last_index + 1))


def test_failover_preserves_committed_values(cluster_factory):
    cluster = cluster_factory(MultiPaxosReplica)
    cluster.run_ms(5)
    cmd = cluster.client.put("s0", "k", "keep-me")
    cluster.run_ms(150)
    assert cluster.client.reply_for(cmd).ok
    cluster["s0"].crash()
    cluster.run_ms(1500)
    survivors = [r for r in cluster.values() if r.alive and r.phase1_succeeded]
    assert len(survivors) == 1
    new_leader = survivors[0]
    cluster.run_ms(300)
    assert new_leader.store.read_local("k") == "keep-me"


def test_new_leader_ballot_exceeds_old(cluster_factory):
    cluster = cluster_factory(MultiPaxosReplica)
    cluster.run_ms(5)
    old_ballot = cluster["s0"].ballot
    cluster["s0"].crash()
    cluster.run_ms(1500)
    new_leader = next(r for r in cluster.values() if r.alive and r.phase1_succeeded)
    assert new_leader.ballot > old_ballot


def test_new_leader_fills_holes_with_nops(cluster_factory):
    cluster = cluster_factory(MultiPaxosReplica)
    cluster.run_ms(5)
    for i in range(4):
        cluster.client.put("s0", f"k{i}", f"v{i}")
    cluster.run_ms(150)
    cluster["s0"].crash()
    cluster.run_ms(1500)
    new_leader = next(r for r in cluster.values() if r.alive and r.phase1_succeeded)
    cluster.run_ms(500)
    # the new leader's frontier is contiguous: every instance up to its
    # tail is chosen (values or no-ops)
    assert new_leader.commit_index == new_leader.last_index


def test_ballot_uniqueness_by_proposer():
    assert Ballot(2, "a") != Ballot(2, "b")
    assert (2, "a") < (2, "b")


def test_stale_leader_demoted_on_higher_ballot(cluster_factory):
    cluster = cluster_factory(MultiPaxosReplica)
    cluster.run_ms(5)
    cluster.network.isolate("s0")
    cluster.run_ms(1500)
    cluster.network.heal()
    cluster.run_ms(500)
    leaders = [r for r in cluster.values() if r.phase1_succeeded]
    assert len(leaders) == 1


def test_acks_for_an_old_ballot_do_not_count_toward_a_quorum(cluster_factory):
    """An acceptOK counts toward the ballot it was sent for only: two
    ballot-2 acks plus one stale ballot-1 ack must not choose."""
    cluster = cluster_factory(MultiPaxosReplica, n=5)
    leader = cluster["s0"]
    for cut_off in ("s2", "s3", "s4"):
        cluster.network.block("s0", cut_off)
    cmd = cluster.client.put("s0", "k", "v")
    cluster.run_ms(10)
    assert leader.ballot.round == 1
    assert leader._accept_counts[0] == {"s0", "s1"}
    # s0 re-runs phase 1 with s1 (and s4) cut off; s2 and s3 promise.
    cluster.network.heal()
    cluster.network.block("s0", "s1")
    cluster.network.block("s0", "s4")
    leader._on_leader_timeout()
    while not leader.phase1_succeeded:
        cluster.run_ms(0.1)
    assert leader.ballot.round == 2
    # The re-proposal reaches s2 and s3; only s2's acceptOK makes it back.
    cluster.network.block("s3", "s0", bidirectional=False)
    cluster.run_ms(20)
    assert cluster["s3"].instances[0].ballot == 2
    assert leader._accept_counts[0] == {"s0", "s2"}
    assert 0 not in leader.chosen
    assert cluster.client.reply_for(cmd) is None
    # The third ballot-2 ack (s3 did accept at ballot 2) completes it.
    leader._on_accepted("s3", Accepted(
        ballot=leader.ballot, acceptor="s3", instance_ids=[0]))
    assert 0 in leader.chosen
    cluster.run_ms(5)
    assert cluster.client.reply_for(cmd).ok


@pytest.mark.parametrize("cls", [MultiPaxosReplica, PaxosPQLReplica])
def test_ack_sets_are_bounded_by_the_in_flight_window(cluster_factory, cls):
    """Ack sets live only while their instance is unchosen: 200 sequential
    commits leave none behind (and late acks for chosen instances do not
    bring them back)."""
    cluster = cluster_factory(cls)
    cluster.run_ms(100)
    leader = cluster["s0"]
    for i in range(200):
        cluster.client.put("s0", f"k{i % 7}", str(i))
        cluster.run_ms(5)
        in_flight = leader.next_instance - leader.first_unchosen()
        assert len(leader._accept_counts) <= in_flight
    assert leader.commit_index == 199
    assert leader._accept_counts == {}
    # Instances a follower may apply on frontier news leave the set as
    # they apply; the leader's self-accepts never enter it.
    cluster.run_ms(100)
    assert all(replica._fresh == set() for replica in cluster.values())


def test_frontier_news_at_another_ballot_applies_nothing(cluster_factory):
    """s2 accepted x at instance 0 from s0 under ballot (1, s0) alone.  s1
    may since have chosen a fill there under (2, s1) with a quorum that
    never saw x: its frontier news must not make s2 apply x."""
    from repro.protocols.types import Command, OpType

    cluster = cluster_factory(MultiPaxosReplica)
    follower = cluster["s2"]
    x = Command(op=OpType.PUT, key="k", value="x", client_id="c", seq=1)
    follower._on_accept("s0", Accept(ballot=Ballot(1, "s0"), proposer="s0",
                                     instances={0: x}, commit_index=-1))
    follower._on_learn("s1", Learn(ballot=Ballot(2, "s1"), proposer="s1",
                                   commit_index=0))
    assert follower.commit_index == -1
    assert follower.store.read_local("k") is None
