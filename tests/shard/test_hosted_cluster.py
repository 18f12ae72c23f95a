"""Host-multiplexed sharded clusters: shared machines, coalescing, beacons.

End-to-end coverage of the (site, host) runtime under the shard layer:
replicas of many groups share one simulated machine, the GroupMux batches
their cross-host traffic, colocated leaders' heartbeats merge into host
beacons — and none of it changes what the protocols agree on (histories
stay linearizable, terms stay stable, crashes take whole machines).
"""

import pytest

from repro.shard.cluster import ShardedCluster, ShardedSpec
from repro.shard.nemesis import Nemesis
from repro.sim.units import ms, sec
from repro.workload.ycsb import WorkloadConfig


def spec(**overrides) -> ShardedSpec:
    base = dict(
        protocol="raft",
        num_shards=4,
        placement="colocated",
        clients_per_region=4,
        workload=WorkloadConfig(read_fraction=0.1, value_size=8),
        duration_s=3.0,
        warmup_s=0.8,
        cooldown_s=0.4,
        seed=7,
        check_history=True,
        site_uplink_factor=None,
        hosts_per_site=1,
        coalesce=True,
    )
    base.update(overrides)
    return ShardedSpec(**base)


def test_groups_share_hosts_and_muxes():
    cluster = ShardedCluster(spec())
    sites = cluster.topology.sites
    # One machine per site, every group's replica in a site on it.
    assert sorted(cluster.hosts) == sorted(f"h0.{site}" for site in sites)
    for site in sites:
        host = cluster.hosts[f"h0.{site}"]
        names = {node.name for node in host.nodes}
        expected = {f"g{g}_r_{site}" for g in range(4)} | {f"mux.h0.{site}"}
        assert names == expected
    # The NIC is host-keyed: all colocated replicas share one egress queue.
    backlog = cluster.network.egress_backlog_us
    assert backlog("g0_r_oregon") == backlog("g3_r_oregon")


def test_hosts_per_site_spreads_groups_round_robin():
    cluster = ShardedCluster(spec(hosts_per_site=2))
    host_of = {node.name: host_name
               for host_name, host in cluster.hosts.items()
               for node in host.nodes}
    assert host_of["g0_r_oregon"] == "h0.oregon"
    assert host_of["g1_r_oregon"] == "h1.oregon"
    assert host_of["g2_r_oregon"] == "h0.oregon"
    assert host_of["g0_r_seoul"] == "h0.seoul"
    # The cluster's placement agrees with the layout plan it was built on.
    for (shard, site), name in [((s, site), f"g{s}_r_{site}")
                                for s in range(4)
                                for site in cluster.topology.sites]:
        assert host_of[name] == cluster.host_plan.host_for_group(site, shard)


def test_coalesced_cluster_serves_and_stays_linearizable():
    result = ShardedCluster(spec()).run()
    assert result.completed > 0
    assert result.linearizable
    assert result.filtered == 0
    assert result.counters["coalesce_envelopes"] > 0
    assert result.counters["coalesce_messages"] \
        > result.counters["coalesce_envelopes"]


def test_beacons_merge_all_colocated_leaders_and_replace_heartbeats():
    cluster = ShardedCluster(spec())
    result = cluster.run()
    beacons = result.counters["coalesce_beacons"]
    beats = result.counters["coalesce_beacon_beats"]
    assert beacons > 0
    # Colocated placement: every one of the 4 leaders lives on the oregon
    # host, so each beacon it emits merges all 4 groups' keepalives.
    assert beats == 4 * beacons
    # The merged beacon really replaces the empty heartbeats: no follower
    # timed out, every replica is still on the seeded term-1 leadership.
    for shard, replicas in cluster.groups.items():
        for replica in replicas.values():
            assert replica.current_term == 1
            assert replica.leader_id == f"g{shard}_r_oregon"


def test_coalescing_off_keeps_legacy_transport_on_shared_hosts():
    result = ShardedCluster(spec(coalesce=False)).run()
    assert result.completed > 0
    assert result.linearizable
    assert "coalesce_envelopes" not in result.counters


def test_mencius_groups_coalesce_but_are_beacon_exempt():
    # The leaderless satellite: Mencius has no leader keepalive to merge —
    # its skip/commit announcements ride the coalesced envelopes, and the
    # beacon counters must stay ZERO (the pinned exemption).
    result = ShardedCluster(spec(
        protocol="mencius", num_shards=2, duration_s=4.0,
        check_history=False)).run()
    assert result.completed > 0
    assert result.counters["coalesce_envelopes"] > 0
    assert result.counters.get("coalesce_beacons", 0) == 0
    assert result.counters.get("coalesce_beacon_beats", 0) == 0


def test_host_kill_crashes_every_colocated_replica_together():
    cluster = ShardedCluster(spec(duration_s=4.0))
    nemesis = Nemesis(cluster, host_down_s=1.0)
    nemesis.host_kill_at(1.0, host="h0.ohio")

    observed = {}

    def snapshot():
        host = cluster.hosts["h0.ohio"]
        observed["down"] = [node.name for node in host.nodes
                            if not node.alive]
    cluster.sim.schedule_at(sec(1.0) + ms(1), snapshot)
    result = cluster.run()

    assert nemesis.host_kills == 1
    # Machine granularity: all four group replicas AND the mux died as one.
    assert sorted(observed["down"]) == sorted(
        [f"g{g}_r_ohio" for g in range(4)] + ["mux.h0.ohio"])
    # The cluster rode it out: ohio is a follower site for every group, so
    # the groups keep committing and histories stay clean.
    assert result.completed > 0
    assert result.linearizable


def test_beacon_does_not_mask_a_partitioned_leader():
    cluster = ShardedCluster(spec(duration_s=6.0, num_shards=2))
    nemesis = Nemesis(cluster, partition_s=4.0)
    nemesis.leader_partition_at(1.0, shard=0)
    result = cluster.run()
    # The host beacon withholds beats over blocked links, so g0's
    # followers time out and elect despite the leaders' host still
    # beaconing for every group: someone must have advanced past the
    # seeded term.  (Without the per-link check the beacon would keep
    # resetting their timers and the group would wedge until the heal.)
    assert nemesis.partitions == 1
    terms = [replica.current_term
             for replica in cluster.groups[0].values()]
    assert max(terms) > 1
    assert result.completed > 0
    assert result.linearizable


def test_host_recovery_survives_interleaved_replica_kill():
    # A leader_kill recovering one cohabitant EARLY must not cancel the
    # machine's restart for everyone else (the recovery closure revives
    # its own victims, not whatever Host.alive derives).
    cluster = ShardedCluster(spec(duration_s=5.0))
    nemesis = Nemesis(cluster, leader_down_s=1.2, host_down_s=2.0)
    nemesis.leader_kill_at(1.0, shard=0)   # crashes g0's leader (oregon)
    nemesis.host_kill_at(1.5, host="h0.oregon")  # machine dies too
    cluster.run()
    # leader_kill's recovery fires at 2.2s (making Host.alive true);
    # host_kill's at 3.5s must still revive the other colocated nodes.
    assert all(node.alive for node in cluster.hosts["h0.oregon"].nodes)


def test_leader_host_kill_fails_over_every_group_at_once():
    cluster = ShardedCluster(spec(duration_s=6.0, num_shards=2))
    nemesis = Nemesis(cluster, host_down_s=4.0)
    # Every leader lives on h0.oregon: one machine failure orphans ALL
    # groups; every group must elect a new leader elsewhere and keep going.
    nemesis.host_kill_at(1.0, host="h0.oregon")
    result = cluster.run()
    assert nemesis.host_kills == 1
    assert result.linearizable
    for shard, replicas in cluster.groups.items():
        leaders = [r.name for r in replicas.values()
                   if r.alive and getattr(r, "is_leader", False)]
        assert leaders and all("oregon" not in name for name in leaders)
