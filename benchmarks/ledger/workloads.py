"""The five ledger workloads.

Names are fixed: later issues cite them.  Each builder returns a built,
not yet run, cluster from the program's own harnesses; the only inputs
that vary are the experiment seed and (for the smoke test) the scale.
`README.md` gives the rationale per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.bench.harness import Cluster, ExperimentSpec
from repro.shard.cluster import ShardedCluster, ShardedSpec
from repro.shard.nemesis import Nemesis
from repro.shard.txn import TxnCluster, TxnSpec
from repro.sim.network import NetworkConfig
from repro.sim.node import NodeCosts
from repro.sim.topology import ec2_five_regions
from repro.sim.units import ms
from repro.workload.ycsb import WorkloadConfig

WARMUP_S = 1.0
# The cool-down is the drain grace for `failed_ops_share`: twice the
# slowest steady-state ack any closed-loop workload shows today.
COOLDOWN_S = 2.0
LEADER_DOWN_S = 2.0


@dataclass(frozen=True)
class Sizing:
    """What `--seed` and `--scale` turn into for one run."""

    seed: int
    scale: float
    window_s: float

    @property
    def duration_s(self) -> float:
        return WARMUP_S + self.window_s + COOLDOWN_S

    def clients(self, per_region: int) -> int:
        return max(1, round(per_region * self.scale))

    def spec_kwargs(self, check: bool) -> Dict[str, Any]:
        return dict(duration_s=self.duration_s, warmup_s=WARMUP_S,
                    cooldown_s=COOLDOWN_S, seed=self.seed,
                    check_history=check)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    window_s: float       # steady window at scale 1.0, simulated seconds
    min_window_s: float   # floor under --scale (the smoke test)
    build: Callable[[Sizing, bool], Any]
    # Sim time of the injected fault as a share of the run (None = no fault).
    fault_at: Optional[float] = None
    # An "op" is one committed transaction (counted per client through
    # `txns_issued`) instead of one session submission.
    transactional: bool = False

    def sizing(self, seed: int, scale: float) -> Sizing:
        return Sizing(seed, scale,
                      max(self.min_window_s, self.window_s * scale))


def _raft_wan_rw(size: Sizing, check: bool) -> Cluster:
    return Cluster(ExperimentSpec(
        protocol="raft", clients_per_region=size.clients(40),
        pipeline_depth=4,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                value_size=8),
        **size.spec_kwargs(check)))


def _raftstar_pql_read90(size: Sizing, check: bool) -> Cluster:
    return Cluster(ExperimentSpec(
        protocol="raftstar-pql", clients_per_region=size.clients(40),
        pipeline_depth=1,
        workload=WorkloadConfig(read_fraction=0.9, conflict_rate=0.05,
                                value_size=8),
        full_check=check, **size.spec_kwargs(check)))


def _mencius_wan_4kb(size: Sizing, check: bool) -> Cluster:
    return Cluster(ExperimentSpec(
        protocol="mencius", execution_mode="commutative",
        clients_per_region=size.clients(30),
        workload=WorkloadConfig(read_fraction=0.0, conflict_rate=0.0,
                                value_size=4096),
        **size.spec_kwargs(check)))


def _mux_txn_colocated(size: Sizing, check: bool) -> TxnCluster:
    return TxnCluster(TxnSpec(
        protocol="raft", num_shards=4, placement="colocated",
        clients_per_region=size.clients(24),
        workload=WorkloadConfig(read_fraction=0.1, conflict_rate=0.0,
                                value_size=8),
        site_uplink_factor=None, hosts_per_site=1, coalesce=True,
        coalesce_flush_interval=int(ms(2)), txn_size=2,
        cross_shard_ratio=0.25, **size.spec_kwargs(check)))


def _raft_leader_kill_open(size: Sizing, check: bool) -> ShardedCluster:
    cluster = ShardedCluster(ShardedSpec(
        protocol="raft", num_shards=1, clients_per_region=8,
        pipeline_depth=8, offered_load=400.0 * size.scale,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                value_size=8),
        **size.spec_kwargs(check)))
    nemesis = Nemesis(cluster, seed=size.seed, leader_down_s=LEADER_DOWN_S)
    nemesis.leader_kill_at(LEADER_KILL.fault_at * size.duration_s, shard=0)
    return cluster


LEADER_KILL = Workload(
    "raft-leader-kill-open",
    "open loop, leader killed 40% in: election, retry and redirect paths set the result",
    window_s=32.0, min_window_s=12.0, build=_raft_leader_kill_open,
    fault_at=0.4)

WORKLOADS: List[Workload] = [
    Workload(
        "raft-wan-rw",
        "Raft replication fast path under closed-loop 50% reads; mux/router/txn/control idle",
        window_s=8.0, min_window_s=1.5, build=_raft_wan_rw),
    Workload(
        "raftstar-pql-read90",
        "Raft*-PQL at 90% reads: local lease reads beside the Raft* write path; checker-heavy",
        window_s=6.0, min_window_s=1.5, build=_raftstar_pql_read90),
    Workload(
        "mencius-wan-4kb",
        "Mencius write-only 4 KB values: NIC egress bound, every replica proposes",
        window_s=12.0, min_window_s=1.5, build=_mencius_wan_4kb),
    Workload(
        "mux-txn-colocated",
        "4 colocated shard groups, coalescing mux, 25% cross-shard 2PC: every layer the others bypass",
        window_s=3.5, min_window_s=1.5, build=_mux_txn_colocated,
        transactional=True),
    LEADER_KILL,
]

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def replica_groups(cluster) -> List[List[Any]]:
    """The data-plane replica groups (control groups excluded)."""
    groups = getattr(cluster, "groups", None)
    if groups is None:
        return [list(cluster.replicas.values())]
    return [list(groups[shard].values()) for shard in sorted(groups)]


def delay_model() -> str:
    """The injected delays, read from the program's shipped defaults."""
    topology = ec2_five_regions()
    rtts = [topology.rtt_ms(a, b) for i, a in enumerate(topology.sites)
            for b in topology.sites[i + 1:]]
    net = NetworkConfig()
    costs = NodeCosts()
    return (
        f"{len(topology.sites)} EC2 regions, {min(rtts):.0f}-{max(rtts):.0f} ms RTT, "
        f"{topology.jitter_fraction * 100:.0f}% seeded jitter, "
        f"{topology.local_us / 1000:.2f} ms client<->local-server hop, "
        f"NIC {net.bandwidth_bytes_per_sec * 8 / 1e6:.1f} Mbps (750 Mbps / 20), "
        f"CPU {costs.per_message} us/message + {costs.per_command} us/command "
        f"+ {costs.per_byte} us/byte")
