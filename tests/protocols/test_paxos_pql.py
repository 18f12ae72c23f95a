"""PQL on MultiPaxos: what the MultiPaxos binding of `QuorumLease` adds —
the commit gate on one instance's ack set, instances choosing out of
order.  Everything the delta decides for both families is in
test_quorum_lease.py."""

from repro.protocols.quorum_lease import PaxosPQLReplica
from repro.sim.units import ms


def test_later_instance_chosen_while_an_earlier_one_is_still_open(cluster_factory):
    cluster = cluster_factory(PaxosPQLReplica, config_kwargs={
        "lease_duration": ms(500), "lease_renew_interval": ms(100)})
    cluster.run_ms(100)
    leader = cluster["s0"]
    first = leader.next_instance
    # The Accept for `first` is lost on the way to both acceptors ...
    cluster.network.block("s0", "s1")
    cluster.network.block("s0", "s2")
    stuck = cluster.client.put("s0", "a", "1")
    cluster.run_ms(5)
    cluster.network.heal()
    # ... the next one gets through: every holder acks it, so it is chosen
    # on its own ack set although the instance before it is not.
    later = cluster.client.put("s0", "b", "2")
    cluster.run_ms(50)
    assert first + 1 in leader.chosen and first not in leader.chosen
    assert set(leader._accept_counts) == {first}
    # Execution stays in instance order: neither write is acknowledged.
    assert leader.commit_index == first - 1
    assert cluster.client.reply_for(stuck) is None
    assert cluster.client.reply_for(later) is None
