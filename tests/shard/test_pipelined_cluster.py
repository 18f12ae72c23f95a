"""Pipelined sessions composed with the shard layer: windowed dedup under
routing, live resharding, and 2PC — the at-most-once guarantees must hold
at depth > 1 exactly as they did for the closed-loop depth-1 clients."""

import os

from repro.bench.live import ReshardSpec, run_reshard_experiment
from repro.shard.cluster import (
    ShardedCluster,
    ShardedSpec,
    run_sharded_experiment,
)
from repro.shard.txn import TxnSpec, run_txn_experiment
from repro.workload.ycsb import WorkloadConfig

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.6"))

WORKLOAD = WorkloadConfig(read_fraction=0.5, conflict_rate=0.05,
                          value_size=8, records=2_000)


def test_pipelined_sharded_run_is_linearizable_and_lossless():
    spec = ShardedSpec(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=3, workload=WORKLOAD,
        duration_s=4.0, warmup_s=1.0, cooldown_s=0.5, seed=11,
        check_history=True, pipeline_depth=4,
    )
    result = run_sharded_experiment(spec)
    assert result.completed > 0
    assert result.linearizable
    assert result.filtered == 0


def test_pipelined_beats_closed_loop_at_equal_clients():
    results = {}
    for depth in (1, 4):
        spec = ShardedSpec(
            protocol="raft", num_shards=2, placement="spread",
            clients_per_region=2, workload=WORKLOAD,
            duration_s=4.0, warmup_s=1.0, cooldown_s=0.5, seed=3,
            pipeline_depth=depth,
        )
        results[depth] = run_sharded_experiment(spec).throughput_ops
    assert results[4] > 1.5 * results[1]


def test_pipelined_reshard_keeps_every_ack_exactly_once():
    """The windowed dedup's hardest composition: a live 2->4 split while
    every client keeps 4 commands in flight.  Retries cross the migration,
    windows migrate with their keys, and the accounting must balance."""
    spec = ReshardSpec(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=3, workload=WORKLOAD,
        duration_s=7.0, warmup_s=1.0, cooldown_s=0.5, seed=7,
        check_history=True, pipeline_depth=4,
        reshard_to=4, reshard_at_s=2.5,
    )
    result = run_reshard_experiment(ShardedCluster(spec))
    assert result.reshard_completed
    assert result.completed > 0
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.linearizable


def test_pipelined_transactions_stay_strict_serializable():
    spec = TxnSpec(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=2,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                value_size=64, records=2_000),
        duration_s=5.0, warmup_s=1.0, cooldown_s=0.5, seed=5,
        check_history=True, pipeline_depth=3,
        txn_size=2, cross_shard_ratio=0.3,
    )
    result = run_txn_experiment(spec)
    assert result.committed_total > 0
    assert result.cross_shard > 0
    assert result.safe, (result.acks_lost, result.acks_duplicated,
                         result.duplicate_executions,
                         result.serializability_violations)


def test_open_loop_sharded_fleet():
    spec = ShardedSpec(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=2, workload=WORKLOAD,
        duration_s=4.0, warmup_s=1.0, cooldown_s=0.5, seed=9,
        check_history=True, pipeline_depth=4, offered_load=300.0,
    )
    result = run_sharded_experiment(spec)
    assert result.completed > 0
    assert result.linearizable
    assert result.filtered == 0
