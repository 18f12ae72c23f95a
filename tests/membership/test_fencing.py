"""Stale-voter fencing: the lease-read regression.

The dangerous window for lease protocols: the final config commits and
the removed replica retires, but it still holds lease grants acked
*before* the change — valid for up to one lease duration.  Unfenced, it
would answer lease reads from state the new voter set no longer
guards.  These tests pin the fence on both client-facing paths (the
request handler and the lease-read path) while the lease is provably
still valid, plus the grant-side decay that closes the window for good:
nobody grants fresh leases to a lingering or retired member, so its
holder status ages out instead of being renewed forever.
"""

import pytest

from repro.protocols.messages import ConfigChange
from repro.protocols.quorum_lease import PaxosPQLReplica, RaftStarPQLReplica
from repro.protocols.types import Consistency
from repro.sim.units import ms, sec

CASES = [
    pytest.param(RaftStarPQLReplica, "joint", id="pql-joint"),
    pytest.param(PaxosPQLReplica, "alpha", id="paxospql-alpha"),
]


def change_for(kind):
    if kind == "joint":
        return ConfigChange(kind="joint", epoch=1,
                            old=("s0", "s1", "s2"), new=("s0", "s1", "s3"))
    return ConfigChange(kind="alpha", epoch=1,
                        new=("s0", "s1", "s3"), alpha=8)


def replace_s2(group, kind):
    """Write a key everyone has applied, then swap s2 for a fresh s3."""
    group.client.put("s0", "fenced-key", "pre-change")
    group.run_for(300)
    group.spawn_joiner("s3")
    cfg = group.client.send_config("s0", change_for(kind))
    group.run_for(1300)
    assert group.client.replies[cfg.request_id].ok
    assert group.replicas["s2"].retired


@pytest.mark.parametrize("cls,kind", CASES)
def test_removed_replica_rejects_lease_reads(make_group, cls, kind):
    # A 10 s lease makes the window unambiguous: every grant s2 acked
    # before the change is still valid when the read arrives.
    group = make_group(cls, lease_duration=sec(10),
                       lease_renew_interval=sec(2))
    replace_s2(group, kind)
    s2 = group.replicas["s2"]
    assert s2.leases.valid_grant_count() >= group.config.majority, \
        "test premise broken: s2's pre-change leases should still be valid"

    served_before = s2.local_reads_served
    read = group.client.get("s2", "fenced-key",
                            consistency=Consistency.DEFAULT)
    group.run_for(200)
    reply = group.client.replies[read.request_id]
    assert not reply.ok, "retired replica served a lease read"
    assert reply.value is None
    assert s2.local_reads_served == served_before


@pytest.mark.parametrize("cls,kind", CASES)
def test_removed_replica_rejects_writes(make_group, cls, kind):
    group = make_group(cls)
    replace_s2(group, kind)
    write = group.client.put("s2", "fenced-key", "post-change")
    group.run_for(300)
    reply = group.client.replies[write.request_id]
    assert not reply.ok, "retired replica accepted a write"
    # The rejection names the fenced server so a routed client knows
    # which table entry to repair.
    assert reply.server == "s2"


@pytest.mark.parametrize("cls,kind", CASES)
def test_surviving_replica_still_serves_lease_reads(make_group, cls, kind):
    """Control: the fence is the `retired` flag, not a side effect of the
    reconfiguration — a surviving voter keeps the lease-read fast path."""
    group = make_group(cls, lease_duration=sec(10),
                       lease_renew_interval=sec(2))
    replace_s2(group, kind)
    group.run_for(500)  # a renew round over the new voter set
    s1 = group.replicas["s1"]
    served_before = s1.local_reads_served
    read = group.client.get("s1", "fenced-key",
                            consistency=Consistency.DEFAULT)
    group.run_for(300)
    reply = group.client.replies[read.request_id]
    assert reply.ok
    assert reply.value == "pre-change"
    assert s1.local_reads_served == served_before + 1


@pytest.mark.parametrize("cls,kind", CASES)
def test_no_fresh_grants_to_removed_member(make_group, cls, kind):
    """Grant-side decay: survivors stop leasing to the removed member the
    moment it leaves the voter set (lingering learners included), and the
    retired replica stops granting entirely — so its holder status, and
    with it the leader's commit wait on its acks, ages out within one
    lease duration instead of being renewed forever."""
    group = make_group(cls)
    replace_s2(group, kind)
    s2 = group.replicas["s2"]
    granted_to_s2 = {name: r.leases.granted.get("s2", 0)
                     for name, r in group.replicas.items() if name != "s2"}
    s2_granted = dict(s2.leases.granted)
    group.run_for(1500)  # several renew intervals
    for name, replica in group.replicas.items():
        if name == "s2":
            continue
        assert replica.leases.granted.get("s2", 0) == granted_to_s2[name], \
            f"{name} granted a fresh lease to the removed member"
        assert "s2" not in replica.lease_peers()
    assert s2.leases.granted == s2_granted, "retired replica kept granting"
    # And the decay completes: one lease duration after the change, s2 no
    # longer counts as an active holder anywhere.
    group.run_for(group.config.lease_duration / ms(1))
    for name in ("s0", "s1", "s3"):
        assert "s2" not in group.replicas[name].leases.active_holders()
