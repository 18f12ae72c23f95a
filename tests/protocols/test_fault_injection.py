"""Fault injection: message loss, partitions, crash-recover cycles."""

import pytest

from repro.kvstore.checker import HistoryChecker
from repro.protocols.mencius import MenciusReplica
from repro.protocols.multipaxos import MultiPaxosReplica
from repro.protocols.quorum_lease import PaxosPQLReplica, RaftStarPQLReplica
from repro.protocols.raft import RaftReplica, Role
from repro.protocols.raftstar import RaftStarReplica
from repro.sim.network import NetworkConfig
from repro.sim.units import ms


def attach_checker(cluster):
    checker = HistoryChecker()
    for replica in cluster.values():
        replica.on_apply_hooks.append(checker.record_apply)
    return checker


def store_digests(cluster):
    return {replica.store.digest() for replica in cluster.values()}


@pytest.mark.parametrize("replica_cls",
                         [RaftReplica, RaftStarReplica, MultiPaxosReplica])
def test_progress_under_message_loss(cluster_factory, replica_cls):
    cluster = cluster_factory(replica_cls)
    cluster.network.config.loss_rate = 0.05
    checker = attach_checker(cluster)
    cluster.run_ms(5)
    cmds = []
    for i in range(10):
        cmds.append(cluster.client.put("s0", f"k{i}", f"v{i}"))
        cluster.run_ms(120)
    cluster.network.config.loss_rate = 0.0
    cluster.run_ms(2000)
    replied = sum(1 for c in cmds if cluster.client.reply_for(c))
    assert replied >= 8  # loss slows things down but does not wedge them
    assert checker.check_prefix_agreement() == []
    assert len(store_digests(cluster)) == 1  # and nobody is left behind


@pytest.mark.parametrize("replica_cls",
                         [RaftReplica, RaftStarReplica, MultiPaxosReplica])
def test_repeated_leader_crashes_never_lose_commits(cluster_factory, replica_cls):
    cluster = cluster_factory(replica_cls, n=5)
    checker = attach_checker(cluster)
    cluster.run_ms(5)
    committed = {}
    crashed = []
    for round_no in range(3):
        cmd = cluster.client.put("s0" if round_no == 0 else leader_name(cluster),
                                 f"k{round_no}", f"v{round_no}")
        cluster.run_ms(400)
        if cluster.client.reply_for(cmd):
            committed[f"k{round_no}"] = f"v{round_no}"
        victim = leader_name(cluster)
        if victim:
            cluster[victim].crash()
            crashed.append(victim)
        cluster.run_ms(1200)
        if len(crashed) == 2:
            break
    final_leader = leader_name(cluster)
    assert final_leader is not None
    for key, value in committed.items():
        assert cluster[final_leader].store.read_local(key) == value
    assert checker.check_prefix_agreement() == []


def leader_name(cluster):
    for name, replica in cluster.replicas.items():
        if replica.alive and replica.is_leader:
            return name
    return None


@pytest.mark.parametrize("seed", [3, 4, 8])
def test_multipaxos_every_replica_catches_up_after_loss(cluster_factory,
                                                        seed):
    """5 % loss over 50 puts, then a loss-free drain: every replica ends at
    the leader's log tail.  At seed 3 followers lost Accepts below the
    leader's frontier and pull them; at seeds 4 and 8 the leader's own
    instance lost its acceptOKs and a refresh tick re-sends it."""
    cluster = cluster_factory(MultiPaxosReplica, n=5, seed=seed)
    cluster.network.config.loss_rate = 0.05
    for i in range(50):
        cluster.client.put("s0", f"k{i}", f"v{i}")
        cluster.run_ms(20)
    cluster.network.config.loss_rate = 0.0
    cluster.run_ms(3000)
    tail = cluster["s0"].last_index
    assert [replica.commit_index for replica in cluster.values()] == [tail] * 5
    assert len(store_digests(cluster)) == 1


@pytest.mark.parametrize("seed", [16, 18])
def test_multipaxos_leader_crashes_under_loss_never_fork(cluster_factory,
                                                         seed):
    """10 % loss over 60 puts to the leader, which is crashed for 200 ms
    before every 15th, then a loss-free drain.  A recovered replica holds
    values accepted under an older ballot where the next leader chose a
    fill no-op: it must pull the chosen values rather than apply its own."""
    cluster = cluster_factory(MultiPaxosReplica, n=5, seed=seed)
    checker = attach_checker(cluster)
    cluster.run_ms(5)
    cluster.network.config.loss_rate = 0.10
    for i in range(60):
        if i and i % 15 == 0:
            victim = leader_name(cluster)
            if victim:
                cluster[victim].crash()
                cluster.run_ms(200)
                cluster[victim].recover()
        cluster.client.put(leader_name(cluster) or "s0", f"k{i}", f"v{i}")
        cluster.run_ms(20)
    cluster.network.config.loss_rate = 0.0
    cluster.run_ms(3000)
    assert checker.check_prefix_agreement() == []
    assert len(store_digests(cluster)) == 1


@pytest.mark.parametrize("replica_cls", [
    RaftReplica, RaftStarReplica, MultiPaxosReplica, RaftStarPQLReplica,
    PaxosPQLReplica, MenciusReplica])
def test_crashed_follower_recovers_and_catches_up(cluster_factory,
                                                  replica_cls):
    """The shared crash/recover lifecycle, for every family: a follower
    that missed writes while down reloads its log, replays it into a
    fresh store and catches up with the rest.  Paxos-PQL needs the
    refresh tick's re-proposal of the instance the recovered lease holder
    never acked."""
    cluster = cluster_factory(replica_cls)
    checker = attach_checker(cluster)
    cluster.run_ms(5)
    cluster["s2"].crash()
    for i in range(5):
        cluster.client.put("s0", f"k{i}", f"v{i}")
    cluster.run_ms(300)
    cluster["s2"].recover()
    # Caught up within a second: a recovered Mencius replica pulls at
    # once, not a `REVOKE_TIMEOUT` stall-clock tick later.
    cluster.run_ms(1000)
    for i in range(5):
        assert cluster["s2"].store.read_local(f"k{i}") == f"v{i}"
    cluster.run_ms(2000)
    assert len(store_digests(cluster)) == 1
    assert checker.check_prefix_agreement() == []


def test_minority_partition_cannot_commit(cluster_factory):
    cluster = cluster_factory(RaftReplica, n=5)
    cluster.run_ms(5)
    cluster.network.partition(["s0", "s1"], ["s2", "s3", "s4"])
    cmd = cluster.client.put("s0", "k", "minority")
    cluster.run_ms(500)
    assert cluster.client.reply_for(cmd) is None


def test_majority_side_elects_and_serves(cluster_factory):
    cluster = cluster_factory(RaftReplica, n=5)
    cluster.run_ms(5)
    cluster.network.partition(["s0", "s1"], ["s2", "s3", "s4"])
    cluster.run_ms(1200)
    majority_leader = next(
        (n for n in ("s2", "s3", "s4")
         if cluster[n].role is Role.LEADER), None)
    assert majority_leader is not None
    cmd = cluster.client.put(majority_leader, "k", "majority")
    cluster.run_ms(400)
    assert cluster.client.reply_for(cmd).ok


def test_heal_reconciles_divergent_logs(cluster_factory):
    cluster = cluster_factory(RaftReplica, n=5)
    checker = attach_checker(cluster)
    cluster.run_ms(5)
    # old leader strands writes in the minority
    cluster.network.partition(["s0", "s1"], ["s2", "s3", "s4"])
    cluster.client.put("s0", "k", "stranded")
    cluster.run_ms(1200)
    majority_leader = next(n for n in ("s2", "s3", "s4")
                           if cluster[n].role is Role.LEADER)
    done = cluster.client.put(majority_leader, "k", "winner")
    cluster.run_ms(400)
    assert cluster.client.reply_for(done).ok
    cluster.network.heal()
    cluster.run_ms(1500)
    # every replica converges on the committed value
    for replica in cluster.values():
        assert replica.store.read_local("k") == "winner"
    assert checker.check_prefix_agreement() == []
