"""Quorum-lease manager."""

import pytest

from repro.protocols.quorum_lease import RaftStarPQLReplica
from repro.sim.units import ms, sec


def build(cluster_factory, **kwargs):
    kwargs.setdefault("config_kwargs", {})
    kwargs["config_kwargs"].setdefault("lease_duration", ms(500))
    kwargs["config_kwargs"].setdefault("lease_renew_interval", ms(100))
    return cluster_factory(RaftStarPQLReplica, **kwargs)


def test_everyone_gets_quorum_lease(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    for replica in cluster.values():
        assert replica.leases.has_quorum_lease()


def test_grant_counts_include_self(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    assert cluster["s0"].leases.valid_grant_count() == 3


def test_active_holders_tracks_acks(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    holders = cluster["s0"].leases.active_holders()
    assert holders == frozenset({"s0", "s1", "s2"})


def test_lease_expires_without_renewal(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    # cut s2 off: its held leases lapse once the last grants expire
    cluster.network.isolate("s2")
    cluster.run_ms(900)
    assert not cluster["s2"].leases.has_quorum_lease()


def test_crashed_holder_drops_out_of_active_set(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    cluster["s2"].crash()
    cluster.run_ms(900)
    assert "s2" not in cluster["s0"].leases.active_holders()


def test_partitioned_replica_loses_lease_but_majority_keeps_it(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    cluster.network.isolate("s1")
    cluster.run_ms(900)
    assert not cluster["s1"].leases.has_quorum_lease()
    assert cluster["s0"].leases.has_quorum_lease()
    assert cluster["s2"].leases.has_quorum_lease()


def test_lease_restored_after_heal(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    cluster.network.isolate("s1")
    cluster.run_ms(900)
    cluster.network.heal()
    cluster.run_ms(300)
    assert cluster["s1"].leases.has_quorum_lease()


def test_crash_clears_lease_state(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    replica = cluster["s1"]
    replica.crash()
    assert replica.leases.valid_grant_count() == 0


# -- derived deadlines agree with the uncached definitions ----------------------


def _uncached(replica):
    """The definitions the deadlines are derived from, walked per call."""
    leases, now = replica.leases, replica.sim.now
    quorum = leases.valid_grant_count() >= replica.config.majority
    holders = frozenset(holder for holder, expiry in leases.acked.items()
                        if expiry >= now)
    return quorum, holders


def _assert_agrees(cluster):
    for replica in cluster.values():
        assert (replica.leases.has_quorum_lease(),
                replica.leases.active_holders()) == _uncached(replica), \
            f"{replica.name} at {cluster.sim.now}"


def test_deadlines_track_grant_ack_expiry_and_crash(cluster_factory):
    cluster = build(cluster_factory, n=5)
    _assert_agrees(cluster)  # before the first grant round
    for _ in range(30):      # grants and acks arriving, 7 ms at a time
        cluster.run_ms(7)
        _assert_agrees(cluster)
    cluster.network.isolate("s3")  # s3's grants lapse one by one
    cluster["s4"].crash()
    assert not cluster["s4"].leases.has_quorum_lease()
    assert cluster["s4"].leases.active_holders() == frozenset()
    saw_lapse = False
    for _ in range(120):
        cluster.run_ms(7)
        _assert_agrees(cluster)
        saw_lapse |= not cluster["s3"].leases.has_quorum_lease()
    assert saw_lapse
    assert cluster["s0"].leases.active_holders() == frozenset({"s0", "s1", "s2"})
    cluster.network.heal()
    cluster["s4"].recover()
    for _ in range(40):
        cluster.run_ms(7)
        _assert_agrees(cluster)
    assert all(r.leases.has_quorum_lease() for r in cluster.values())


def test_expiry_flips_exactly_when_the_deadline_passes(cluster_factory):
    """Stepping the clock across the quorum deadline one microsecond at a
    time: the grant is valid AT its expiry and invalid just after."""
    cluster = build(cluster_factory)
    cluster.run_ms(100)
    s2 = cluster["s2"]
    cluster.network.isolate("s2")
    cluster.run_ms(5)  # grants already in flight still land
    # s2 keeps renewing its own grant; with a majority of 2 the lease
    # lasts as long as the later of the two grants it can no longer renew.
    deadline = max(s2.leases.held["s0"], s2.leases.held["s1"])
    cluster.sim.run(until=deadline)
    assert s2.leases.has_quorum_lease()
    _assert_agrees(cluster)
    cluster.sim.run(until=deadline + 1)
    assert not s2.leases.has_quorum_lease()
    _assert_agrees(cluster)


def test_active_holders_is_reused_until_an_ack_or_an_expiry(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(110)  # renew rounds run at 0, 100, 200 ms
    leases = cluster["s0"].leases
    first = leases.active_holders()
    cluster.run_ms(20)  # no renew round in between
    assert leases.active_holders() is first
    cluster.run_ms(100)  # a renew round: acks arrived
    assert leases.active_holders() is not first
    assert leases.active_holders() == first
