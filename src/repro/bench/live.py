"""Live-transition experiments: a reshard, or a host replacement, under load.

Both take a *built* `ShardedCluster` (so a caller installs a fault
schedule directly: `Nemesis(cluster, ...)`), trigger the transition at the
spec's time, run, and return the cluster's `Accounting` plus the
before/after throughput and the bucketed timeline around the transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.recorder import TIMELINE_BUCKET_S
from repro.shard.cluster import Accounting, ShardedCluster, ShardedSpec
from repro.sim.units import sec


@dataclass
class ReshardSpec(ShardedSpec):
    """A sharded trial that resizes itself mid-run.

    `num_shards` is the starting shard count; at `reshard_at_s` the cluster
    transitions to `reshard_to` groups while clients keep issuing load.
    """

    reshard_to: int = 4
    reshard_at_s: float = 3.0


@dataclass
class MembershipSpec(ShardedSpec):
    """A sharded trial that loses a machine mid-run and splices in a
    replacement through logged config changes.

    At `replace_at_s` the first data host by name (deterministic per spec)
    is crashed permanently; a fresh host is spawned in the same site and
    every group the dead machine served drives a voter-set change
    swapping the dead replica for a new one (joint consensus for the Raft
    family, α-bounded reconfiguration for the Paxos family — chosen by the
    deployment's protocol).
    """

    replace_at_s: float = 3.0
    # 0 uses the protocol default window (`membership.DEFAULT_ALPHA`).
    alpha: int = 0

    def __post_init__(self) -> None:
        if self.hosts_per_site is None:
            # Host replacement needs a machine layout: the machine, not
            # the process, is the replacement unit.
            self.hosts_per_site = 1


@dataclass(kw_only=True)
class ReshardResult(Accounting):
    """The run's `Accounting` plus the measurements around the split."""

    spec: ReshardSpec
    pre_throughput: float   # steady window before the transition
    post_throughput: float  # from migration completion to cool-down
    # `MetricsRecorder.timeline`: (bucket start in s, ops/s, p99 ms)
    timeline: List[Tuple[float, float, float]]
    migration_started_s: Optional[float]
    migration_completed_s: Optional[float]
    moves: int
    final_epoch: Optional[int]
    leaders: Dict[int, str]
    failovers: int = 0  # reshard-driver lease takeovers during the run

    @property
    def reshard_completed(self) -> bool:
        return self.migration_completed_s is not None

    @property
    def migration_ms(self) -> float:
        if not self.reshard_completed:
            return float("nan")
        return 1000.0 * (self.migration_completed_s - self.migration_started_s)


@dataclass(kw_only=True)
class MembershipResult(Accounting):
    """The run's `Accounting` plus the measurements around the splice."""

    spec: MembershipSpec
    kind: str               # "joint" or "alpha"
    pre_throughput: float   # steady window before the replacement
    post_throughput: float  # from transition completion to cool-down
    # `MetricsRecorder.timeline`: (bucket start in s, ops/s, p99 ms)
    timeline: List[Tuple[float, float, float]]
    replaced_host: str
    replacement_host: Optional[str]
    groups_changed: int     # config changes driven (one per hosted group)
    config_changes: int     # completed transitions (final/alpha applied)
    replace_started_s: float
    replace_completed_s: Optional[float]
    events_processed: int = 0

    @property
    def replacement_completed(self) -> bool:
        return (self.replace_completed_s is not None
                and self.config_changes >= self.groups_changed)

    @property
    def replacement_ms(self) -> float:
        if self.replace_completed_s is None:
            return float("nan")
        return 1000.0 * (self.replace_completed_s - self.replace_started_s)

    @property
    def throughput_ratio(self) -> float:
        if not self.pre_throughput:
            return float("nan")
        return self.post_throughput / self.pre_throughput

    @property
    def stall_s(self) -> float:
        """Unavailability proxy: total bucket time inside the replacement
        window where throughput fell below half the pre-replacement rate."""
        threshold = 0.5 * self.pre_throughput
        done_s = self.replace_completed_s or self.spec.duration_s
        return TIMELINE_BUCKET_S * sum(
            1 for start, ops, _p99 in self.timeline
            if self.replace_started_s <= start < done_s and ops < threshold)


def _seconds(at_us: Optional[int]) -> Optional[float]:
    return at_us / 1e6 if at_us is not None else None


def _measured(cluster: ShardedCluster, at_s: float,
              completed_s: Optional[float]) -> dict:
    """After the run: the cluster's accounting plus the throughput on
    either side of the transition triggered at `at_s` and completed at
    `completed_s` (None = never)."""
    spec, metrics = cluster.spec, cluster.metrics
    window_start, window_end = spec.window()
    post_start = sec(completed_s if completed_s is not None else at_s)
    return dict(
        vars(cluster.accounting()),
        pre_throughput=metrics.throughput_ops(window_start, sec(at_s)),
        post_throughput=metrics.throughput_ops(post_start, window_end),
        timeline=metrics.timeline(spec.duration_s),
    )


def run_reshard_experiment(cluster: ShardedCluster) -> ReshardResult:
    """Trigger the live transition to `spec.reshard_to` groups at
    `spec.reshard_at_s` on a cluster built from a `ReshardSpec`, run it,
    and account for every ack."""
    spec = cluster.spec
    cluster.reshard(spec.reshard_to, at=sec(spec.reshard_at_s))
    cluster.sim.run(until=sec(spec.duration_s))
    completed_s = _seconds(cluster.reshard_completed_at)
    plane = cluster.coordinator
    return ReshardResult(
        **_measured(cluster, spec.reshard_at_s, completed_s),
        spec=spec,
        migration_started_s=_seconds(cluster.reshard_started_at),
        migration_completed_s=completed_s,
        moves=len(plane.moves) if plane else 0,
        final_epoch=cluster.router.epoch,
        leaders=dict(cluster.leaders),
        failovers=plane.failovers if plane is not None else 0,
    )


def run_membership_experiment(cluster: ShardedCluster) -> MembershipResult:
    """Kill one data host of a cluster built from a `MembershipSpec` at
    `spec.replace_at_s`, splice in a replacement through the protocol's
    own reconfiguration style, run, and account for every ack."""
    spec = cluster.spec
    kind = cluster._change_kind()  # validate the protocol up front
    target = sorted(cluster.data_host_names)[0]
    new_host: List[str] = []
    cluster.sim.schedule_at(
        sec(spec.replace_at_s),
        lambda: new_host.append(cluster.replace_host(target,
                                                     alpha=spec.alpha)))
    cluster.sim.run(until=sec(spec.duration_s))
    completed_s = _seconds(cluster.membership_completed_at)
    return MembershipResult(
        **_measured(cluster, spec.replace_at_s, completed_s),
        spec=spec,
        kind=kind,
        replaced_host=target,
        replacement_host=new_host[0] if new_host else None,
        groups_changed=len(cluster.membership_drivers),
        config_changes=cluster.metrics.counters.get("config_changes", 0),
        replace_started_s=spec.replace_at_s,
        replace_completed_s=completed_s,
        events_processed=cluster.sim.events_processed,
    )
