"""Raft*-PQL: what the Raft* binding of `QuorumLease` adds — the commit
gate as a prefix `match_index` ceiling.  Everything the delta decides for
both families is in test_quorum_lease.py."""

from repro.protocols.quorum_lease import RaftStarPQLReplica
from repro.sim.units import ms


def test_commit_never_passes_the_slowest_holders_match_index(cluster_factory):
    cluster = cluster_factory(RaftStarPQLReplica, config_kwargs={
        "lease_duration": ms(500), "lease_renew_interval": ms(100)})
    cluster.run_ms(100)
    leader = cluster["s0"]
    settled = leader.commit_index
    # s2 stops receiving appends but keeps its (acked, unexpired) leases.
    cluster.network.block("s0", "s2")
    writes = [cluster.client.put("s0", f"k{i}", "v") for i in range(3)]
    cluster.run_ms(150)
    assert leader._peer_state["s1"].match_index == leader.last_index
    assert leader.commit_index == settled == leader._peer_state["s2"].match_index
    assert all(cluster.client.reply_for(w) is None for w in writes)
    # Once s2's holder status lapses the whole prefix commits at once.
    cluster.run_ms(900)
    assert leader.commit_index == leader.last_index
    assert all(cluster.client.reply_for(w).ok for w in writes)
