"""N independent consensus groups over one shared simulator and network.

Each shard is a full replica group of any protocol in the `PROTOCOLS`
registry — one replica per region, its own leader, its own log and store —
all sharing one `Simulator`, `Network`, and `Topology` so cross-group
contention (the per-site WAN uplink) is modelled.  Replica names are
prefixed per group (``g3_r_seoul`` is shard 3's Seoul replica).

Safety is enforced per shard at three layers:

* routing — clients compute ownership with the same partitioner servers use;
* an ownership guard in front of every replica's client-request handler
  rejects wrong-shard keys with a redirect hint instead of proposing them;
* each replica's store carries a key filter (`KVStore.set_key_filter`) as a
  last-resort safety net; `filtered` in the result must stay 0 as long as
  the partition map is static.

The partition map is epoch-versioned and no longer frozen at construction:
`ShardedCluster.reshard(new_num_shards, at=...)` performs a **live**
N -> M transition — new groups are spun up mid-run, a `ReshardCoordinator`
migrates each moved hash range (records plus at-most-once dedup state)
donor -> recipient through the groups' committed logs, and clients repair
their routing tables from the epoch-stamped maps servers ship with
redirects.  See `repro.shard.reshard` for the moving parts and
`repro.bench.live` for the instrumented experiments.

`run_sharded_experiment` mirrors `repro.bench.run_experiment`: build, run,
trim warm-up/cool-down, return the run's `Accounting` (ack identities and
the per-shard `HistoryChecker` verdicts) with aggregate and per-shard stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.kvstore.checker import HistoryChecker, record_client_events
from repro.membership.driver import MembershipDriver
from repro.metrics.recorder import MetricsRecorder
from repro.obs import Observability, install_standard_gauges
from repro.protocols.config import geo_cluster
from repro.protocols.messages import ConfigChange
from repro.protocols.multipaxos import MultiPaxosReplica
from repro.protocols.mux import GroupMux, MuxDirectory
from repro.protocols.registry import MENCIUS_PROTOCOLS, PROTOCOLS
from repro.protocols.types import OpType
from repro.shard.partition import VersionedPartitioner
from repro.shard.placement import leader_sites
from repro.shard.control import ControlGroup
from repro.shard.reshard import (
    ReshardControlPlane,
    ReshardCoordinator,
    ShardOwnership,
)
from repro.shard.router import ShardRouter, ShardRoutedClient
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Host
from repro.sim.rng import SplitRng
from repro.sim.topology import HostPlan, ec2_five_regions
from repro.sim.units import sec
from repro.workload.plan import FleetSpec


def shard_of_server(server: str) -> int:
    """Recover the shard id from a group-prefixed replica name (g<id>_...)."""
    return int(server.split("_", 1)[0][1:])


class UnsupportedProtocolError(RuntimeError):
    """A shard-layer operation a protocol cannot serve: membership changes
    of Mencius groups, whose slot ownership is positional."""


@dataclass
class ShardedSpec(FleetSpec):
    """One sharded trial's parameters."""

    num_shards: int = 4
    placement: str = "spread"
    # Shared per-site WAN uplink, as a multiple of one node's NIC rate
    # (None disables the shared link entirely).
    site_uplink_factor: Optional[float] = 2.0
    # Host multiplexing: how many machines each site runs (replica of group
    # g lives on host g % hosts_per_site).  None keeps the legacy
    # one-private-host-per-replica model.  With shared hosts, colocated
    # replicas contend on one CPU/NIC and crash as one machine.
    hosts_per_site: Optional[int] = None
    # Cross-group coalescing (`repro.protocols.mux.GroupMux`): batch all
    # messages to the same destination host into one envelope per flush
    # tick and merge colocated leaders' heartbeats into host beacons.
    # Implies hosts_per_site=1 when no host layout is given.
    coalesce: bool = False
    coalesce_flush_interval: Optional[int] = None

    @property
    def effective_hosts_per_site(self) -> Optional[int]:
        if self.hosts_per_site is None and self.coalesce:
            return 1
        return self.hosts_per_site


@dataclass
class Accounting:
    """What a finished run owes its clients, computed in one place
    (`ShardedCluster.accounting`).  The two ack identities are sanity
    checks on the client machinery (one identity per issued operation, one
    record per completion); the check with teeth is
    `duplicate_executions`, which compares store versions against distinct
    acknowledged writes and catches a retry re-executing somewhere instead
    of being answered from the dedup cache."""

    completed: int            # completions inside the steady window
    acks_lost: int
    acks_duplicated: int
    duplicate_executions: int
    redirects: int
    capped_redirects: int
    filtered: int
    violations: Dict[int, List[str]]   # per-shard HistoryChecker verdicts
    # Transactional runs only: the Elle-style cycle check's findings.
    serializability_violations: List[str] = field(default_factory=list)

    @classmethod
    def of(cls, cluster: "ShardedCluster", *, issued: int, acked: int,
           outstanding: int, duplicate_executions: int,
           violations: Dict[int, List[str]],
           serializability_violations: Optional[List[str]] = None,
           ) -> "Accounting":
        """`issued`/`acked`/`outstanding` are fleet-wide sums in the
        cluster's own unit of work (commands, or transactions)."""
        clients = cluster.clients
        return cls(
            completed=len(cluster.metrics.window(*cluster.spec.window())),
            acks_lost=issued - acked - outstanding,
            acks_duplicated=len(cluster.metrics.records) - acked,
            duplicate_executions=duplicate_executions,
            redirects=sum(c.redirects for c in clients),
            capped_redirects=sum(c.capped_redirects for c in clients),
            filtered=cluster.filtered_count(),
            violations=violations,
            serializability_violations=serializability_violations or [],
        )

    @property
    def linearizable(self) -> bool:
        return all(not v for v in self.violations.values())

    @property
    def strict_serializable(self) -> bool:
        return not self.serializability_violations

    @property
    def safe(self) -> bool:
        return (self.linearizable and self.strict_serializable
                and self.acks_lost == 0 and self.acks_duplicated == 0
                and self.duplicate_executions == 0)

    def describe(self) -> str:
        """The verdict as a figure cell: "yes", or what broke."""
        if self.safe:
            return "yes"
        histories = sum(len(v) for v in self.violations.values())
        return (f"NO (lost={self.acks_lost} dup={self.acks_duplicated} "
                f"re-exec={self.duplicate_executions} "
                f"ser={len(self.serializability_violations)} "
                f"history={histories})")


@dataclass(kw_only=True)
class ShardedResult(Accounting):
    """The run's `Accounting` plus the throughput and latency aggregates."""

    spec: ShardedSpec
    throughput_ops: float
    per_shard_throughput: Dict[int, float]
    read_latency: Dict[str, float]
    write_latency: Dict[str, float]
    leaders: Dict[int, str]
    events_processed: int
    # Named event counters (coalesce_envelopes, coalesce_messages,
    # coalesce_beacons, ... — see MetricsRecorder.counters).
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def messages_per_envelope(self) -> float:
        """Header-amortization factor of the coalescing transport: protocol
        messages (beacon beats included) carried per envelope sent."""
        envelopes = self.counters.get("coalesce_envelopes", 0)
        if not envelopes:
            return 0.0
        carried = (self.counters.get("coalesce_messages", 0)
                   + self.counters.get("coalesce_beacon_beats", 0))
        return carried / envelopes


class ShardedCluster:
    """A built sharded deployment: N groups, a router, sharded clients."""

    def __init__(self, spec: ShardedSpec) -> None:
        self.spec = spec
        self.topology = spec.topology or ec2_five_regions()
        self.rng = SplitRng(spec.seed)
        self.sim = Simulator()
        node_bw = NetworkConfig.bandwidth_bytes_per_sec
        net_config = NetworkConfig(
            site_bandwidth_bytes_per_sec=(
                None if spec.site_uplink_factor is None
                else spec.site_uplink_factor * node_bw))
        self.network = Network(self.sim, self.topology, rng=self.rng, config=net_config)
        self.metrics = MetricsRecorder()
        self.versioned = VersionedPartitioner.initial(spec.num_shards)
        self.partitioner = self.versioned  # the cluster's current map
        self.leaders = leader_sites(spec.placement, spec.num_shards,
                                    self.topology.sites)

        # Host multiplexing: shared machines (and, with coalescing, the
        # per-host GroupMux transports) that group replicas are placed on.
        self.hosts_per_site = spec.effective_hosts_per_site
        self.host_plan = (None if self.hosts_per_site is None
                          else HostPlan(tuple(self.topology.sites),
                                        self.hosts_per_site))
        self.hosts: Dict[str, Host] = {}
        # Machines running data replicas (control hosts spun up for a
        # reshard fleet are excluded) — the pool `replace_host` and the
        # nemesis `host_replace` schedule pick from.
        self.data_host_names: set = set()
        self.directory = MuxDirectory() if spec.coalesce else None
        self.muxes: Dict[str, GroupMux] = {}

        self.groups: Dict[int, Dict[str, object]] = {}
        self.configs = {}
        self.checkers: Dict[int, HistoryChecker] = {}
        self.ownerships: Dict[str, ShardOwnership] = {}
        for shard in range(spec.num_shards):
            self._build_group(shard, self.leaders[shard], self.versioned,
                              owned=True)

        local_replica = {
            shard: {site: f"g{shard}_r_{site}" for site in self.topology.sites}
            for shard in range(spec.num_shards)
        }
        self.router = ShardRouter(self.versioned, local_replica,
                                  sites=self.topology.sites)
        self.clients = self._build_fleet()
        if spec.check_history:
            record_client_events(
                self.clients,
                lambda server: self.checkers.get(shard_of_server(server)))

        self.obs: Optional[Observability] = None
        if spec.obs:
            self.obs = Observability(self.sim, self.metrics)
            for shard, replicas in self.groups.items():
                self.obs.install(replicas.values())
                install_standard_gauges(
                    self.obs.sampler, replicas=replicas.values(),
                    network=self.network, group=f"g{shard}")
            self.obs.install(self.clients)
            # Transactional deployments: the coordinators are part of the
            # serving path, so their 2PC phases join the spans too.
            self.obs.install(getattr(self, "coordinators", []))
            install_standard_gauges(self.obs.sampler, clients=self.clients,
                                    muxes=self.muxes.values())
            self.obs.sampler.start(stop_at=sec(spec.duration_s))

        # Live-reshard state (`coordinator` is the fleet facade: plan,
        # control group, and completion state of the active transition)
        self.coordinator: Optional[ReshardControlPlane] = None
        self.reshard_started_at: Optional[int] = None
        self.reshard_completed_at: Optional[int] = None
        self._target: Optional[VersionedPartitioner] = None

        # Live-membership state: the per-shard voter lists and config
        # epochs as this layer last drove them, the in-flight change
        # drivers, and a completion journal for the figures.
        self.members: Dict[int, List[str]] = {
            shard: sorted(replicas) for shard, replicas in self.groups.items()
        }
        self.config_epochs: Dict[int, int] = {shard: 0 for shard in self.groups}
        self.membership_drivers: List[MembershipDriver] = []
        self.membership_events: List[Tuple[float, str]] = []
        self.membership_completed_at: Optional[int] = None
        self._replaced_incarnations: Dict[str, int] = {}

    def _build_fleet(self):
        """Build this deployment's client fleet through the spec's
        `ClientPlan` (the transactional cluster overrides this to spawn
        coordinators + transactional clients over the same plan)."""
        spec = self.spec
        sites = self.topology.sites
        stop_at = sec(spec.duration_s)
        return spec.client_plan().spawn(
            sites, self.rng,
            lambda name, site, rng, **knobs: ShardRoutedClient(
                name, self.sim, self.network, site, self.router,
                spec.workload, sites, rng, self.metrics, stop_at=stop_at,
                **knobs))

    def _build_group(self, shard: int, leader_site: str,
                     versioned: VersionedPartitioner, owned: bool) -> None:
        """One replica group for `shard`, wired with epoch-versioned
        ownership.  `owned=False` spins the group up empty (mid-reshard):
        it owns nothing until migrations import its ranges."""
        spec = self.spec
        replica_cls = PROTOCOLS[spec.protocol]
        prefix = f"g{shard}_r"
        leader = (None if spec.protocol in MENCIUS_PROTOCOLS
                  else f"{prefix}_{leader_site}")
        extra = {}
        if self.host_plan is not None:
            extra["hosts"] = {
                f"{prefix}_{site}":
                    self._host(self.host_plan.host_for_group(site, shard), site)
                for site in self.topology.sites
            }
            self.data_host_names.update(
                host.name for host in extra["hosts"].values())
            if spec.coalesce and spec.coalesce_flush_interval is not None:
                extra["coalesce_flush_interval"] = spec.coalesce_flush_interval
        config = geo_cluster(self.topology.sites, prefix=prefix,
                             initial_leader=leader, **extra)
        replicas = {
            name: replica_cls(name, self.sim, self.network, config)
            for name in config.names
        }
        if spec.coalesce:
            for name, replica in replicas.items():
                self._mux_for(replica.host, config).register(replica, shard)
        if spec.check_history:
            self.checkers[shard] = HistoryChecker()
        for replica in replicas.values():
            self._wire_replica(shard, replica, versioned, owned)
        self.configs[shard] = config
        self.groups[shard] = replicas

    def _wire_replica(self, shard: int, replica,
                      versioned: VersionedPartitioner, owned: bool) -> None:
        """Founding and replacement replicas alike: `shard`'s epoch-versioned
        ownership, and the shard's checker when history is checked."""
        ownership = ShardOwnership(shard, versioned, owned=owned)
        replica.store.set_key_filter(ownership.owns_key)
        replica.ownership_guard = ownership.guard
        replica.shard_info = ownership
        replica.on_apply_hooks.append(ownership.on_apply)
        self.ownerships[replica.name] = ownership
        checker = self.checkers.get(shard)
        if checker is not None:
            replica.on_apply_hooks.append(checker.record_apply)

    def _host(self, host_name: str, site: str) -> Host:
        """Get-or-create a shared machine."""
        host = self.hosts.get(host_name)
        if host is None:
            host = Host(host_name, self.sim, site=site)
            self.hosts[host_name] = host
        return host

    def _mux_for(self, host: Host, config) -> GroupMux:
        """Get-or-create the coalescing transport of a shared machine."""
        mux = self.muxes.get(host.name)
        if mux is None:
            mux = GroupMux(host, self.sim, self.network, self.directory,
                           flush_interval=config.coalesce_flush_interval,
                           beacon_interval=config.heartbeat_interval,
                           costs=config.costs, metrics=self.metrics)
            self.muxes[host.name] = mux
        return mux

    # -- live resharding -----------------------------------------------------

    def reshard(self, new_num_shards: int, at: Optional[int] = None) -> None:
        """Transition to `new_num_shards` groups — immediately, or at sim
        time `at` (microseconds) so the migration runs under live load.
        Any protocol: a step goes to one replica of a group, which forwards
        it to its leader or, in Mencius, proposes it in its own slot; a
        dead first hop is rotated off (DESIGN.md §5)."""
        if at is None:
            self._start_reshard(new_num_shards)
        else:
            self.sim.schedule_at(at, self._start_reshard, new_num_shards)

    def _start_reshard(self, new_num_shards: int) -> None:
        if self.coordinator is not None and not self.coordinator.done:
            raise RuntimeError("a reshard is already in progress")
        target, moves = self.versioned.advanced(new_num_shards)
        new_leaders = leader_sites(self.spec.placement, new_num_shards,
                                   self.topology.sites)
        for shard in range(self.versioned.num_shards, new_num_shards):
            self.leaders[shard] = new_leaders[shard]
            self._build_group(shard, new_leaders[shard], target, owned=False)
        self._target = target
        self.reshard_started_at = self.sim.now
        self.reshard_completed_at = None
        # The transition is driven by a fleet: one coordinator per site
        # arbitrated by a dedicated control group, the first site's member
        # holding the initial owner lease.  The control hosts join the
        # cluster's host table so machine-level faults can hit the active
        # driver — a standby then claims the role and resumes from the
        # journaled cursor.
        sites = self.topology.sites
        tag = f"rsctl_e{target.epoch}"
        members = [f"reshard_e{target.epoch}_{site}" for site in sites]
        control = ControlGroup(tag, self.sim, self.network, sites,
                               self.spec.protocol, members=members,
                               initial_owner=members[0])
        for host in control.hosts.values():
            self.hosts[host.name] = host
        plane = ReshardControlPlane(target, moves, control,
                                    on_done=self._finish_reshard)
        self.coordinator = plane
        for site in sites:
            ReshardCoordinator(
                f"reshard_e{target.epoch}_{site}", self.sim, self.network,
                site, control, target, moves, plane,
                self.rng.stream(f"reshard:{target.epoch}:{site}"),
                metrics=self.metrics)

    def _finish_reshard(self) -> None:
        if self.reshard_completed_at is not None:
            return  # a second fleet member observing the committed cursor
        self.versioned = self._target
        self.partitioner = self.versioned
        self.reshard_completed_at = self.sim.now

    # -- live membership -----------------------------------------------------

    def _change_kind(self) -> str:
        """Which reconfiguration style this deployment's protocol runs:
        joint consensus for the Raft family, α-bounded single-decree for
        the Paxos family.  Leaderless Mencius groups are refused — a
        config change must commit through a group leader."""
        if self.spec.protocol in MENCIUS_PROTOCOLS:
            raise UnsupportedProtocolError(
                f"live membership changes are not supported for leaderless "
                f"protocol {self.spec.protocol!r}: the change entry must "
                f"commit through a group leader (and Mencius instance "
                f"ownership is positional — a voter-set swap would reassign "
                f"every open instance); use a leader-based protocol")
        replica_cls = PROTOCOLS[self.spec.protocol]
        return ("alpha" if issubclass(replica_cls, MultiPaxosReplica)
                else "joint")

    def replace_host(self, host_name: str, kill: bool = True,
                     alpha: int = 0) -> str:
        """Replace a data machine live: crash it (every replica it runs
        dies with it, permanently), spawn a fresh `Host` in the same
        site, and drive one config change per group the machine served —
        each swapping the dead replica for a freshly spawned one that
        joins empty and catches up from the leader's snapshot.  Returns
        the replacement host's name."""
        kind = self._change_kind()
        if self.host_plan is None:
            raise RuntimeError(
                "replace_host needs a machine layout (spec.hosts_per_site)")
        host = self.hosts[host_name]
        victims = sorted(node.name for node in host.nodes
                         if node.name in self.ownerships)
        if not victims:
            raise ValueError(f"{host_name!r} runs no data replicas")
        if kill and host.alive:
            host.crash()
        incarnation = self._replaced_incarnations.get(host_name, 0) + 1
        self._replaced_incarnations[host_name] = incarnation
        site = HostPlan.site_of_host(host_name)
        new_host = self._host(
            HostPlan.replacement_host_name(host_name, incarnation), site)
        self.data_host_names.add(new_host.name)
        self.data_host_names.discard(host_name)
        self.membership_events.append(
            (self.sim.now / 1e6,
             f"replace host {host_name} -> {new_host.name}"))
        for victim in victims:
            self._change_membership(shard_of_server(victim), kind,
                                    victim=victim, site=site,
                                    new_host=new_host, alpha=alpha)
        return new_host.name

    def add_replica(self, shard: int, site: str, alpha: int = 0) -> str:
        """Grow a group by one voter in `site`; returns the new replica's
        name.  The new replica joins empty (catch-up snapshot) and only
        becomes a voter when the committed change applies."""
        kind = self._change_kind()
        new_host = None
        if self.host_plan is not None:
            new_host = self._host(
                self.host_plan.host_for_group(site, shard), site)
            self.data_host_names.add(new_host.name)
        return self._change_membership(shard, kind, victim=None, site=site,
                                       new_host=new_host, alpha=alpha)

    def remove_replica(self, shard: int, replica: str,
                       alpha: int = 0) -> None:
        """Shrink a group: drive a config change dropping `replica` from
        the voter set.  The replica retires (stale-voter fencing) when it
        applies the change; it is not crashed."""
        kind = self._change_kind()
        self._change_membership(shard, kind, victim=replica, site=None,
                                new_host=None, alpha=alpha)

    def _change_membership(self, shard: int, kind: str, *,
                           victim: Optional[str], site: Optional[str],
                           new_host: Optional[Host],
                           alpha: int = 0) -> Optional[str]:
        """One logged voter-set change for one group: optionally spawn a
        joiner (when `site` is given), then hand the encoded change to a
        `MembershipDriver` and watch the group's applies for completion
        (`final`/`alpha` at the target epoch)."""
        spec = self.spec
        group = self.groups[shard]
        old_members = list(self.members[shard])
        if victim is not None and victim not in old_members:
            raise ValueError(f"{victim!r} is not a member of group {shard}")
        epoch = self.config_epochs[shard] + 1
        self.config_epochs[shard] = epoch
        survivors = [m for m in old_members if m != victim]

        replacement = None
        if site is not None:
            replacement = f"g{shard}_r{epoch}_{site}"
            member_sites = {m: group[m].site for m in survivors}
            member_sites[replacement] = site
            kwargs = dict(replicas=member_sites, initial_leader=None)
            if new_host is not None:
                hosts = {m: group[m].host for m in survivors
                         if group[m].host is not None}
                hosts[replacement] = new_host
                kwargs["hosts"] = hosts
            config = replace(self.configs[shard], **kwargs)
            replica_cls = PROTOCOLS[spec.protocol]
            joiner = replica_cls(replacement, self.sim, self.network, config)
            # The joiner must not campaign (or run phase 1) before a
            # committed config makes it a voter; `joining` is cleared by
            # the protocol when the final/alpha change applies.
            joiner.joining = True
            joiner._leader_timer.cancel()
            if spec.coalesce and new_host is not None:
                self._mux_for(new_host, config).register(joiner, shard)
            self._wire_replica(shard, joiner, self.versioned, owned=True)
            if self.obs is not None:
                self.obs.install([joiner])
            group[replacement] = joiner

        new_members = sorted(survivors + ([replacement] if replacement else []))
        self.members[shard] = new_members
        change = ConfigChange(
            kind=kind, epoch=epoch,
            old=tuple(old_members) if kind == "joint" else (),
            new=tuple(new_members), alpha=alpha)

        # Completion watcher: the transition is done when any replica
        # applies the final (joint) / alpha change at this epoch.
        fired = [False]
        victim_site = group[victim].site if victim is not None else None

        def watch(server: str, index: int, command) -> None:
            if fired[0] or command.op is not OpType.CONFIG:
                return
            applied = ConfigChange.decode(command)
            if applied.epoch != epoch or applied.kind == "joint":
                return
            fired[0] = True
            self._on_membership_complete(shard, site, victim_site,
                                         victim, replacement)

        for member in survivors:
            group[member].on_apply_hooks.append(watch)
        if replacement is not None:
            group[replacement].on_apply_hooks.append(watch)

        # The send ring starts at the group's original leader site and
        # rotates through the other survivors; forwarding finds whoever
        # leads now, elections just delay the ack.
        leader_name = f"g{shard}_r_{self.leaders[shard]}"
        ring = ([leader_name] if leader_name in survivors else []) + [
            m for m in survivors if m != leader_name]
        driver = MembershipDriver(
            f"member_g{shard}_e{epoch}", self.sim, self.network,
            site or group[survivors[0]].site, ring, change,
            self.rng.stream(f"member:{shard}:{epoch}"))
        self.membership_drivers.append(driver)
        self.membership_events.append(
            (self.sim.now / 1e6,
             f"g{shard} e{epoch} {kind}: -{victim or '∅'} "
             f"+{replacement or '∅'}"))
        return replacement

    def _on_membership_complete(self, shard: int, site: Optional[str],
                                victim_site: Optional[str],
                                victim: Optional[str],
                                replacement: Optional[str]) -> None:
        """First final/alpha apply at the target epoch: repoint the
        router, stamp completion, bump the figure counter."""
        if replacement is not None and site is not None:
            self.router.local_replica[shard][site] = replacement
        elif victim_site is not None:
            # Pure removal: that site's clients fall back to the leader's
            # replica (the retired one now fences every command).
            self.router.local_replica[shard][victim_site] = (
                f"g{shard}_r_{self.leaders[shard]}")
        self.membership_completed_at = self.sim.now
        self.metrics.incr("config_changes")
        self.membership_events.append(
            (self.sim.now / 1e6,
             f"g{shard} done: {victim or '∅'} -> {replacement or '∅'}"))

    # -- introspection ------------------------------------------------------

    def leader_replica(self, shard: int):
        return self.groups[shard][f"g{shard}_r_{self.leaders[shard]}"]

    def filtered_count(self) -> int:
        """Applies rejected by store key filters (0 == routing was airtight;
        during a reshard, boundary-straddling commands may legitimately be
        bounced here and answered with a redirect)."""
        return sum(replica.store.filtered_count
                   for replicas in self.groups.values()
                   for replica in replicas.values())

    # -- safety accounting ---------------------------------------------------

    def _writes(self) -> Tuple[Dict[str, set], Dict[str, int]]:
        """Per key: the distinct acknowledged writes (requires
        `check_history`) and how many writes are still in flight."""
        acked: Dict[str, set] = {}
        for checker in self.checkers.values():
            for event in checker.events:
                if event.op is OpType.PUT:
                    acked.setdefault(event.key, set()).add(
                        (event.client, event.seq))
        in_flight: Dict[str, int] = {}
        for client in self.clients:
            for command in client.pending_commands():
                if command.op is OpType.PUT:
                    in_flight[command.key] = in_flight.get(command.key, 0) + 1
        return acked, in_flight

    def duplicate_execution_count(self) -> int:
        """Acknowledged writes that executed more than once: for every
        written key, the final owner group's version count must equal the
        distinct acknowledged writes plus at most the still-in-flight
        ones.  Any excess means a retry re-executed somewhere instead of
        being answered from the (possibly migrated) dedup cache — the
        failure the client-side ack identities cannot see."""
        acked, in_flight = self._writes()
        by_shard: Dict[int, List[str]] = {}
        for key in acked:
            by_shard.setdefault(self.partitioner.shard_of(key), []).append(key)
        duplicates = 0
        for shard, keys in by_shard.items():
            version = dict.fromkeys(keys, 0)
            for replica in self.groups[shard].values():
                # One store's versions at a time: a shard member derives
                # them in one pass over its install record.
                versions = replica.store.versions()
                for key in keys:
                    version[key] = max(version[key], versions.get(key, 0))
            duplicates += sum(
                max(0, version[key] - len(acked[key]) - in_flight.get(key, 0))
                for key in keys)
        return duplicates

    def accounting(self) -> Accounting:
        """Every ack of the run accounted for, plus the per-shard history
        verdicts.  O(clients) beside the checker calls."""
        clients = self.clients
        return Accounting.of(
            self,
            issued=sum(c.seq for c in clients),
            acked=sum(c.completed for c in clients),
            outstanding=sum(c.in_flight_count for c in clients),
            duplicate_executions=self.duplicate_execution_count(),
            violations={shard: checker.check_all()
                        for shard, checker in sorted(self.checkers.items())})

    # -- running ------------------------------------------------------------

    def run(self) -> ShardedResult:
        spec = self.spec
        self.sim.run(until=sec(spec.duration_s))
        window_start, window_end = spec.window()
        return ShardedResult(
            **vars(self.accounting()),
            spec=spec,
            throughput_ops=self.metrics.throughput_ops(window_start, window_end),
            per_shard_throughput=self.metrics.throughput_by(
                window_start, window_end,
                key=lambda record: shard_of_server(record.server)),
            read_latency=self.metrics.latency_summary_ms(
                window_start, window_end, lambda r: r.op is OpType.GET),
            write_latency=self.metrics.latency_summary_ms(
                window_start, window_end, lambda r: r.op is OpType.PUT),
            leaders=dict(self.leaders),
            events_processed=self.sim.events_processed,
            counters=dict(self.metrics.counters),
        )


def run_sharded_experiment(spec: ShardedSpec) -> ShardedResult:
    return ShardedCluster(spec).run()
