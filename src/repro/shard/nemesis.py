"""Seeded fault injection for sharded and transactional clusters.

Howard & Mortier's comparison argues the interesting Paxos/Raft differences
only surface under leader failure — which is exactly what steady-state
benchmarks never exercise.  A `Nemesis` schedules faults at sim times
against a built (not yet run) `ShardedCluster`/`TxnCluster`:

* **leader_kill** — crash the current leader of a consensus group (or a
  random alive replica if the group is mid-election), recover it later;
* **leader_partition** — cut the leader off from its group peers for a
  while (a gray failure: clients can still reach it, it just cannot
  commit), then heal exactly those links;
* **coordinator_kill** — crash a transaction coordinator mid-2PC and
  recover it, forcing the fenced decision-log replay in
  `repro.shard.txn.TxnCoordinator.on_recover`;
* **host_kill** — crash a whole machine, taking every colocated node (group
  replicas, a coordinator and its control replica, the host's mux with
  whatever it had buffered) down together, then recover them all.  With
  shared hosts the machine is the real crash unit — one box failing
  degrades every group it hosted at once;
* **coordinator_host_kill** — the targeted failover fault: crash the HOST
  of an alive transaction coordinator (or of the reshard fleet's current
  lease-holding driver), machine-granular, so the coordinator and its
  local control replica die together and a hot standby in another site
  must take over through the control journal;
* **host_replace** — the permanent-loss fault: crash a data machine with
  NO recovery, then splice a replacement in through the cluster's live
  membership path (`ShardedCluster.replace_host`) — every group the dead
  box served drives a logged config change swapping the dead replica for
  a fresh one that catches up from a snapshot.

Everything is driven by a named stream off the experiment seed, so a
failing schedule replays exactly.  `tests/shard/nemesis.py` provides the
schedule presets the test suite uses; `random_schedule` is the generic
generator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sim.rng import SplitRng
from repro.sim.units import sec


class Nemesis:
    """Schedules seeded faults against a built cluster before `run()`."""

    def __init__(self, cluster, seed: int = 0,
                 leader_down_s: float = 1.2,
                 partition_s: float = 1.2,
                 coordinator_down_s: float = 1.0,
                 host_down_s: float = 1.2) -> None:
        self.cluster = cluster
        self.rng = SplitRng(0xFA11 + seed).stream("nemesis")
        self.leader_down_s = leader_down_s
        self.partition_s = partition_s
        self.coordinator_down_s = coordinator_down_s
        self.host_down_s = host_down_s
        self.log: List[Tuple[float, str]] = []
        # (sim-seconds, host name) of every machine `_host_kill` took down.
        self.killed_hosts: List[Tuple[float, str]] = []
        self.kills = 0
        self.partitions = 0
        self.coordinator_kills = 0
        self.host_kills = 0
        self.host_replaces = 0

    # -- scheduling ----------------------------------------------------------

    def leader_kill_at(self, at_s: float, shard: Optional[int] = None) -> None:
        self.cluster.sim.schedule_at(sec(at_s), self._leader_kill, shard)

    def leader_partition_at(self, at_s: float,
                            shard: Optional[int] = None) -> None:
        self.cluster.sim.schedule_at(sec(at_s), self._leader_partition, shard)

    def coordinator_kill_at(self, at_s: float,
                            index: Optional[int] = None) -> None:
        self.cluster.sim.schedule_at(sec(at_s), self._coordinator_kill, index)

    def host_kill_at(self, at_s: float, host: Optional[str] = None) -> None:
        self.cluster.sim.schedule_at(sec(at_s), self._host_kill, host)

    def coordinator_host_kill_at(self, at_s: float,
                                 role: str = "txn") -> None:
        """Kill the machine under an alive coordinator at `at_s`: a random
        txn coordinator's host (``role="txn"``) or the host of the reshard
        fleet's current lease-holding driver (``role="reshard"``)."""
        self.cluster.sim.schedule_at(sec(at_s), self._coordinator_host_kill,
                                     role)

    def host_replace_at(self, at_s: float,
                        host: Optional[str] = None) -> None:
        """Permanently kill a data machine at `at_s` and replace it live
        (random alive data host when `host` is None)."""
        self.cluster.sim.schedule_at(sec(at_s), self._host_replace, host)

    def random_schedule(self, events: int, start_s: float, end_s: float,
                        kinds: Sequence[str] = ("leader_kill",
                                                "leader_partition")) -> None:
        """`events` faults at random times in [start_s, end_s)."""
        for _ in range(events):
            at_s = self.rng.uniform(start_s, end_s)
            kind = self.rng.choice(list(kinds))
            if kind == "leader_kill":
                self.leader_kill_at(at_s)
            elif kind == "leader_partition":
                self.leader_partition_at(at_s)
            elif kind == "coordinator_kill":
                self.coordinator_kill_at(at_s)
            elif kind == "host_kill":
                self.host_kill_at(at_s)
            elif kind == "coordinator_host_kill":
                self.coordinator_host_kill_at(at_s)
            elif kind == "host_replace":
                self.host_replace_at(at_s)
            else:  # pragma: no cover - caller typo
                raise ValueError(f"unknown nemesis kind {kind!r}")

    # -- fault actions -------------------------------------------------------

    def _note(self, what: str) -> None:
        self.log.append((self.cluster.sim.now / 1e6, what))

    def _pick_victim(self, shard: Optional[int]):
        groups = self.cluster.groups
        if shard is None:
            shard = self.rng.choice(sorted(groups))
        replicas = groups[shard]
        alive = [r for r in replicas.values() if r.alive]
        if not alive:
            return shard, None
        leaders = [r for r in alive if getattr(r, "is_leader", False)]
        return shard, (leaders[0] if leaders else self.rng.choice(
            sorted(alive, key=lambda r: r.name)))

    def _leader_kill(self, shard: Optional[int]) -> None:
        shard, victim = self._pick_victim(shard)
        if victim is None:
            self._note(f"leader_kill g{shard}: no replica alive, skipped")
            return
        victim.crash()
        self.kills += 1
        self._note(f"leader_kill g{shard}: crashed {victim.name}")

        def recover() -> None:
            if not victim.alive:
                victim.recover()
                self._note(f"leader_kill g{shard}: recovered {victim.name}")
        self.cluster.sim.schedule(sec(self.leader_down_s), recover)

    def _leader_partition(self, shard: Optional[int]) -> None:
        shard, victim = self._pick_victim(shard)
        if victim is None:
            self._note(f"leader_partition g{shard}: no replica alive, skipped")
            return
        peers = [name for name in self.cluster.groups[shard]
                 if name != victim.name]
        network = self.cluster.network
        for peer in peers:
            network.block(victim.name, peer)
        self.partitions += 1
        self._note(f"leader_partition g{shard}: isolated {victim.name} "
                   f"from its group")

        def heal() -> None:
            for peer in peers:
                network.unblock(victim.name, peer)
            self._note(f"leader_partition g{shard}: healed {victim.name}")
        self.cluster.sim.schedule(sec(self.partition_s), heal)

    def _host_kill(self, host_name: Optional[str]) -> None:
        hosts = getattr(self.cluster, "hosts", {})
        alive = sorted(name for name, host in hosts.items() if host.alive)
        if not alive:
            self._note("host_kill: no shared host alive, skipped")
            return
        if host_name is None:
            host_name = self.rng.choice(alive)
        host = hosts[host_name]
        victims = [node for node in host.nodes if node.alive]
        host.crash()
        self.host_kills += 1
        self.killed_hosts.append((self.cluster.sim.now / 1e6, host_name))
        self._note(f"host_kill: crashed {host_name} "
                   f"({len(victims)} colocated nodes)")

        def recover() -> None:
            # Revive the specific nodes THIS kill took down, not whatever
            # Host.alive derives: an interleaved leader_kill recovering
            # one cohabitant early must not cancel the machine's restart
            # for everyone else.
            revived = [node for node in victims if not node.alive]
            for node in revived:
                node.recover()
            if revived:
                self._note(f"host_kill: recovered {host_name}")
        self.cluster.sim.schedule(sec(self.host_down_s), recover)

    def _host_replace(self, host_name: Optional[str]) -> None:
        cluster = self.cluster
        pool = getattr(cluster, "data_host_names", set())
        hosts = getattr(cluster, "hosts", {})
        alive = sorted(name for name in pool
                       if name in hosts and hosts[name].alive)
        if not alive:
            self._note("host_replace: no data host alive, skipped")
            return
        if host_name is None:
            host_name = self.rng.choice(alive)
        try:
            new_host = cluster.replace_host(host_name)
        except Exception as exc:  # leaderless protocol, no layout, ...
            self._note(f"host_replace: {host_name} refused ({exc})")
            return
        self.host_replaces += 1
        self._note(f"host_replace: {host_name} -> {new_host} (permanent)")

    def _coordinator_host_kill(self, role: str) -> None:
        host = None
        if role == "reshard":
            plane = getattr(self.cluster, "coordinator", None)
            active = (plane.active
                      if plane is not None and not plane.done else None)
            if active is not None and active.alive:
                host = active.host
        else:
            coordinators = [c for c in getattr(self.cluster,
                                               "coordinators", [])
                            if c.alive and c.host is not None]
            if coordinators:
                victim = self.rng.choice(
                    sorted(coordinators, key=lambda c: c.name))
                host = victim.host
        if host is None or not host.alive:
            self._note(f"coordinator_host_kill ({role}): "
                       f"no live coordinator host, skipped")
            return
        self._host_kill(host.name)

    def _coordinator_kill(self, index: Optional[int]) -> None:
        coordinators = getattr(self.cluster, "coordinators", [])
        alive = [c for c in coordinators if c.alive]
        if not alive:
            self._note("coordinator_kill: none alive, skipped")
            return
        victim = (coordinators[index] if index is not None
                  else self.rng.choice(sorted(alive, key=lambda c: c.name)))
        if not victim.alive:
            self._note(f"coordinator_kill: {victim.name} already down, skipped")
            return
        victim.crash()
        self.coordinator_kills += 1
        self._note(f"coordinator_kill: crashed {victim.name}")

        def recover() -> None:
            if not victim.alive:
                victim.recover()
                self._note(f"coordinator_kill: recovered {victim.name}")
        self.cluster.sim.schedule(sec(self.coordinator_down_s), recover)
