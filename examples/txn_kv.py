#!/usr/bin/env python
"""Cross-shard transactions: 2PC over Raft groups, surviving the faults
that matter.

The transaction layer is built purely against the protocol-agnostic
command-log interface (swap protocol="raft" for "multipaxos" below — it
runs unchanged, which is the paper's porting thesis at the composition
layer).  Every 2PC step goes through a participant group's committed log:
PREPARE locks keys, stages writes, and votes as replicated state, so a
participant shrugs off its leader crashing mid-transaction; the commit
decision is itself logged in the transaction's home shard, so a crashed
coordinator recovers by replaying the decision log instead of trusting
its memory.

This example runs 50 % cross-shard / 50 % single-shard transactional load
over 4 groups while a nemesis kills a shard leader mid-prepare traffic,
kills the Oregon coordinator mid-commit traffic, and partitions another
leader — then audits the run: zero lost or duplicated acknowledgements,
zero re-executed writes, and the committed history checks strictly
serializable.

Run:  PYTHONPATH=src python examples/txn_kv.py
"""

from repro.shard import Nemesis, TxnCluster, TxnSpec
from repro.workload.ycsb import WorkloadConfig


def main():
    spec = TxnSpec(
        protocol="raft",
        num_shards=4,
        placement="spread",
        clients_per_region=12,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                value_size=64, records=10_000),
        duration_s=8.0, warmup_s=1.5, cooldown_s=0.5,
        seed=11, check_history=True,
        txn_size=2, cross_shard_ratio=0.5,
    )

    cluster = TxnCluster(spec)
    nemesis = Nemesis(cluster, seed=11)
    nemesis.leader_kill_at(2.5)          # a participant leader, mid-prepare
    nemesis.coordinator_kill_at(3.5, 0)  # the Oregon coordinator, mid-commit
    nemesis.leader_partition_at(5.0)     # a gray failure for good measure

    print(f"== {spec.num_shards} shards, {int(spec.cross_shard_ratio*100)}% "
          f"cross-shard 2-op transactions, under fire ==\n")
    result = cluster.run()

    print("fault schedule as it fired:")
    for at_s, what in nemesis.log:
        print(f"  t={at_s:5.2f}s  {what}")

    print(f"\ncommitted: {result.committed_total} transactions "
          f"({result.single_shard} single-shard fast path, "
          f"{result.cross_shard} cross-shard 2PC)")
    print(f"throughput: {result.txn_throughput:.1f} txn/s = "
          f"{result.ops_throughput:.1f} ops/s in the steady window")
    print(f"2PC: {result.commits_2pc} commits, {result.attempt_aborts} "
          f"attempts aborted by wait-die, {result.waits} waits, "
          f"{result.recoveries} coordinator recovery (decision-log replay)")
    print(f"acks: {result.acks_lost} lost, {result.acks_duplicated} "
          f"duplicated, {result.duplicate_executions} writes re-executed")
    print(f"locks left at cutoff (in-flight transactions only): "
          f"{result.locks_left}")
    print("strict serializability: "
          + ("PASS — a serial order exists that explains every read/write "
             "and embeds real time"
             if result.strict_serializable
             else f"VIOLATIONS: {result.serializability_violations[:3]}"))
    print("per-shard prefix agreement: "
          + ("PASS" if all(not v for v in result.prefix_violations.values())
             else f"VIOLATIONS: {result.prefix_violations}"))


if __name__ == "__main__":
    main()
