"""Cluster configuration shared by all protocol implementations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.sim.node import Host, NodeCosts
from repro.sim.units import ms, sec


#: Leader-side micro-batching of appends (the etcd optimization kept on in
#: §5): a leader flushes the appends of one interval in one round.
APPEND_FLUSH_INTERVAL = ms(0.5)

#: Follower-side batching of forwarded client requests (the same etcd
#: optimization): a follower flushes its forwards after this interval, or
#: as soon as this many are buffered.
FORWARD_FLUSH_INTERVAL = ms(2)
FORWARD_BATCH_MAX = 32

#: Mencius's suspicion period: the suspect check runs this often, an owner
#: silent this long has its slots revoked, and a replica whose execution
#: frontier is stuck this long asks its peers to catch it up.
REVOKE_TIMEOUT = sec(1)

#: Every Nth heartbeat tick a leader sends REAL empty keepalives even to
#: beacon-covered peers.  The beacon replaces the keepalive's timer reset
#: but not its self-healing: an empty append/Accept also carries the commit
#: frontier, and if the one message that advertised a new frontier was
#: dropped (loss, a partition window), suppression would otherwise leave an
#: idle follower behind forever.  The refresh bounds that staleness to
#: BEACON_REFRESH_TICKS heartbeat intervals while keeping ~90% of the
#: header amortization.
BEACON_REFRESH_TICKS = 10


@dataclass
class ClusterConfig:
    """Static configuration of a replica group.

    `replicas` maps replica name -> site name: the founding members.
    `majority` is ``(n - 1) // 2 + 1``, the quorum size Mencius and the
    PQL lease quorum count; the leadered families count quorums through
    their voter view (`repro.membership`), which a logged config change
    replaces.

    The membership is fixed at construction (`dataclasses.replace` builds
    a new config): `names`, `n`, `majority` and `ranks` are derived from
    `replicas` once, so the per-message paths read plain attributes.
    """

    replicas: Dict[str, str]
    initial_leader: Optional[str] = None

    # Timers (microseconds).  WAN-appropriate defaults: election timeouts
    # must exceed the worst RTT (292 ms) by a safe margin.
    election_timeout_min: int = ms(1000)
    election_timeout_max: int = ms(2000)
    heartbeat_interval: int = ms(100)

    # Quorum-lease parameters (§5.1: 2 s duration, renewed every 0.5 s).
    lease_duration: int = sec(2)
    lease_renew_interval: int = sec(0.5)

    # Mencius.
    skip_interval: int = ms(20)

    # Host-multiplexed deployments: cross-group coalescing of messages to
    # the same destination host (`repro.protocols.mux.GroupMux`).  The
    # flush interval is the batching horizon for one envelope; coalescing
    # is off by default — the single-group figures run the original
    # one-message-one-send transport.
    coalesce_flush_interval: int = ms(0.5)

    # Machine placement: replica name -> the `Host` it runs on.  `None`
    # (the default) gives every replica a private host, the paper's
    # one-process-per-machine deployment.
    hosts: Optional[Dict[str, Host]] = None

    costs: NodeCosts = field(default_factory=NodeCosts)

    # Derived in `__post_init__`, never passed in.
    names: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)
    majority: int = field(init=False, repr=False, compare=False)
    #: replica name -> its round-robin rank (Mencius slot ownership).
    ranks: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a cluster needs at least one replica")
        if self.initial_leader is not None and self.initial_leader not in self.replicas:
            raise ValueError(f"initial leader {self.initial_leader!r} not in replica set")
        self.names = tuple(self.replicas)
        self.n = len(self.names)
        self.majority = (self.n - 1) // 2 + 1
        self.ranks = {name: rank for rank, name in enumerate(self.names)}

    def peers_of(self, name: str) -> Tuple[str, ...]:
        return tuple(replica for replica in self.replicas if replica != name)

    def site_of(self, name: str) -> str:
        return self.replicas[name]

    def host_of(self, name: str) -> Optional[Host]:
        """The shared host `name` runs on (None = private host)."""
        if self.hosts is None:
            return None
        return self.hosts.get(name)

    def owner_of(self, index: int) -> str:
        """Mencius round-robin instance ownership."""
        return self.names[index % self.n]

    def slots_of(self, name: str, start: int, bound: int) -> range:
        """The indexes in [start, bound) that `name` owns: an arithmetic
        progression, so a scan visits the owner's slots only instead of
        filtering the whole range through `owner_of`."""
        return range(start + (self.ranks[name] - start) % self.n, bound, self.n)

    def owned_by(self, name: str, index: int) -> bool:
        return self.owner_of(index) == name


def single_site_cluster(n: int, prefix: str = "s", **kwargs) -> ClusterConfig:
    """n replicas on a LAN topology named s0..s{n-1} (tests)."""
    return ClusterConfig(replicas={f"{prefix}{i}": f"{prefix}{i}" for i in range(n)}, **kwargs)


def geo_cluster(sites, prefix: str = "r", **kwargs) -> ClusterConfig:
    """One replica per site, named <prefix>_<site> (the paper's deployment).

    Sharded deployments pass a per-group prefix (e.g. ``g0_r``) so many
    groups can share one network without name collisions."""
    return ClusterConfig(replicas={f"{prefix}_{site}": site for site in sites}, **kwargs)
