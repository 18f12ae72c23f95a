"""Live voter-set changes at the protocol layer, across the family.

One scenario, every protocol: a 3-replica group under traffic swaps s2
for a freshly spawned s3 through its own log — joint consensus (two
entries, quorums over Cold AND Cnew in between) for the Raft side,
α-bounded single-decree (one entry, the old voters govern the next α
slots) for the Paxos side.  Afterwards:

* the change is acked exactly once and traffic keeps flowing;
* every surviving replica (the joiner included) lands on config epoch 1;
* the joiner caught up from a snapshot to the leader's exact store
  digest and is a voting member (``joining`` cleared);
* the removed replica retired itself and rejects clients (the fencing
  details are in `test_fencing.py`).
"""

import pytest

from repro.protocols.messages import ConfigChange
from repro.protocols.multipaxos import MultiPaxosReplica
from repro.protocols.quorum_lease import PaxosPQLReplica, RaftStarPQLReplica
from repro.protocols.raft import RaftReplica
from repro.protocols.raftstar import RaftStarReplica

CASES = [
    pytest.param(RaftReplica, "joint", id="raft-joint"),
    pytest.param(RaftStarReplica, "joint", id="raftstar-joint"),
    pytest.param(RaftStarPQLReplica, "joint", id="pql-joint"),
    pytest.param(MultiPaxosReplica, "alpha", id="multipaxos-alpha"),
    pytest.param(PaxosPQLReplica, "alpha", id="paxospql-alpha"),
]


def change_for(kind):
    if kind == "joint":
        return ConfigChange(kind="joint", epoch=1,
                            old=("s0", "s1", "s2"), new=("s0", "s1", "s3"))
    return ConfigChange(kind="alpha", epoch=1,
                        new=("s0", "s1", "s3"), alpha=8)


@pytest.mark.parametrize("cls,kind", CASES)
def test_replace_voter_live(make_group, cls, kind):
    group = make_group(cls)
    client = group.client
    for i in range(5):
        client.put("s0", f"k{i}", f"v{i}")
    group.run_for(300)
    assert client.ok_count() == 5

    group.spawn_joiner("s3")
    cfg_cmd = client.send_config("s0", change_for(kind))
    group.run_for(1300)
    assert client.replies[cfg_cmd.request_id].ok, "config change not acked"

    # Post-change traffic; with α=8 the window must churn through.
    for i in range(20):
        client.put("s0", f"post{i}", f"v{i}")
        group.run_for(10)
    group.run_for(500)
    assert client.ok_count() >= 26

    s0 = group.replicas["s0"]
    s2 = group.replicas["s2"]
    s3 = group.replicas["s3"]
    for name in ("s0", "s1", "s3"):
        assert group.replicas[name].config_epoch == 1, name
        assert not group.replicas[name].retired, name
    assert not s3.joining, "joiner still fenced after committed config"
    assert s3.store.applied_count > 0
    assert s3.store.digest() == s0.store.digest(), "joiner digest mismatch"
    assert s2.retired, "removed replica did not retire"


@pytest.mark.parametrize("cls,kind", CASES)
def test_config_replay_is_idempotent(make_group, cls, kind):
    """Re-sending the same epoch (a driver retry answered from dedup, or
    a log replay) must not re-run the transition or bump the epoch."""
    group = make_group(cls)
    group.spawn_joiner("s3")
    client = group.client
    first = client.send_config("s0", change_for(kind))
    group.run_for(1300)
    assert client.replies[first.request_id].ok

    again = client.send_config("s0", change_for(kind))
    group.run_for(800)
    # Dedup or epoch guard: answered (or rejected) without a second run.
    assert group.replicas["s0"].config_epoch == 1
    assert again.request_id in client.replies
    for i in range(5):
        client.put("s0", f"after{i}", "v")
    group.run_for(400)
    assert client.ok_count() >= 6


@pytest.mark.parametrize("cls,kind", [CASES[0], CASES[3]])
def test_pure_removal_shrinks_the_group(make_group, cls, kind):
    """Removing a voter with no joiner: 3 -> 2 voters, commits continue
    (majority of 2 = both), the removed replica retires."""
    group = make_group(cls)
    client = group.client
    if kind == "joint":
        change = ConfigChange(kind="joint", epoch=1,
                              old=("s0", "s1", "s2"), new=("s0", "s1"))
    else:
        change = ConfigChange(kind="alpha", epoch=1,
                              new=("s0", "s1"), alpha=8)
    cfg_cmd = client.send_config("s0", change)
    group.run_for(1300)
    assert client.replies[cfg_cmd.request_id].ok
    for i in range(10):
        client.put("s0", f"k{i}", "v")
        group.run_for(10)
    group.run_for(500)
    assert client.ok_count() >= 11
    assert group.replicas["s2"].retired
    assert group.replicas["s0"].config_epoch == 1
