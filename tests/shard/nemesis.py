"""Seeded nemesis schedules for the shard-layer fault tests.

The mechanism (crash/partition/recover actions against a built cluster)
lives in `repro.shard.nemesis.Nemesis` so the bench CLI can reuse it; this
module holds the *schedules* the test-suite runs:

* `reshard_nemesis` — leader kills and leader partitions at randomized
  sim-times straddling a live 2->4 reshard;
* `txn_nemesis` — the same plus coordinator kills, aimed at the 2PC
  windows (mid-prepare, mid-commit) of the transactional cluster.

Each installs its schedule on a built (not yet run) cluster and returns
the `Nemesis`, so tests can assert against its action log.
"""

from __future__ import annotations

from repro.shard.nemesis import Nemesis


def reshard_nemesis(cluster, seed: int, window: tuple, events: int = 3,
                    leader_down_s: float = 1.2,
                    partition_s: float = 1.2) -> Nemesis:
    """Leader kills + partitions at `events` random times in `window`
    (seconds), meant to straddle the reshard trigger so migrations retry
    through elections."""
    nemesis = Nemesis(cluster, seed=seed, leader_down_s=leader_down_s,
                      partition_s=partition_s)
    nemesis.random_schedule(events, window[0], window[1],
                            kinds=("leader_kill", "leader_partition"))
    return nemesis


def txn_nemesis(cluster, seed: int, window: tuple, events: int = 3,
                coordinator_kills: int = 1, leader_down_s: float = 1.2,
                partition_s: float = 1.2,
                coordinator_down_s: float = 1.0) -> Nemesis:
    """Random leader faults plus `coordinator_kills` coordinator crashes in
    `window`, forcing the fenced decision-log replay mid-2PC."""
    nemesis = Nemesis(cluster, seed=seed, leader_down_s=leader_down_s,
                      partition_s=partition_s,
                      coordinator_down_s=coordinator_down_s)
    nemesis.random_schedule(events, window[0], window[1],
                            kinds=("leader_kill", "leader_partition"))
    nemesis.random_schedule(coordinator_kills, window[0], window[1],
                            kinds=("coordinator_kill",))
    return nemesis
