"""Nemesis-driven reshard tests: the live 2->4 split under leader crashes
and network partitions at randomized sim-times.

`test_reshard.py` covers the fault-free path; these runs inject the faults
that motivate migrating through the committed log in the first place — a
donor leader crashing after MIGRATE_OUT applied but before the reply, a
recipient group electing mid-import, a partitioned leader accepting
commands it can never commit.  Every seed must preserve the client-visible
contract: zero duplicate executions, zero lost/duplicated acks, per-shard
linearizability.  The same schedules run on Mencius groups, where the
victim is a random replica.

`REPRO_BENCH_SCALE` (default 0.3 here: these are fault tests, not
benchmarks) scales client counts and durations; the CI nemesis leg runs
all seeds at 0.3.
"""

import os

import pytest

from repro.bench.live import ReshardSpec, run_reshard_experiment
from repro.shard.cluster import ShardedCluster
from repro.workload.ycsb import WorkloadConfig
from tests.shard.nemesis import reshard_nemesis

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
SEEDS = range(20)


def faulted_spec(seed: int, protocol: str = "raft") -> ReshardSpec:
    return ReshardSpec(
        protocol=protocol, num_shards=2, placement="spread",
        clients_per_region=max(1, round(2 * SCALE / 0.3)),
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                records=400, value_size=64),
        duration_s=max(10.0, 10.0 * SCALE / 0.3),
        warmup_s=1.0, cooldown_s=0.5, seed=seed,
        check_history=True, reshard_to=4, reshard_at_s=2.0,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_reshard_survives_random_leader_faults(seed):
    """2->4 split with 3 leader kills/partitions at random times in the
    [1s, 5.5s] window (straddling the 2s reshard trigger)."""
    check_faulted_reshard(seed, "raft")


@pytest.mark.parametrize("seed", SEEDS)
def test_mencius_reshard_survives_random_replica_faults(seed):
    """The same schedules on leaderless groups: the nemesis crashes or cuts
    off a random replica, which also takes down the slots it owns until
    they are revoked."""
    check_faulted_reshard(seed, "mencius")


def check_faulted_reshard(seed: int, protocol: str) -> None:
    cluster = ShardedCluster(faulted_spec(seed, protocol))
    reshard_nemesis(cluster, seed, window=(1.0, 5.5))
    result = run_reshard_experiment(cluster)

    # The migration retried its way through elections and finished.
    assert result.reshard_completed
    assert result.final_epoch == 1

    # The contract under faults: every burned sequence number answered at
    # most once (bar the final in-flight command per client) and NO
    # acknowledged write executed twice anywhere — a donor-leader crash
    # between MIGRATE_OUT apply and reply must be absorbed by the dedup
    # cache, not re-exported or re-executed.
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0

    # Per-shard linearizability across the epoch change, crashes included.
    assert set(result.violations) == {0, 1, 2, 3}
    assert result.linearizable

    # The run did real work despite the faults.
    assert result.completed > 0
