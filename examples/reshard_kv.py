#!/usr/bin/env python
"""Live resharding: split 2 Raft groups into 4 under load, losing nothing.

PR 1's sharded layer multiplied leaders but froze the partition map at
construction.  This example runs the follow-on: an epoch-versioned map, a
2 -> 4 split triggered mid-run, and key-range migration — records plus
at-most-once dedup state — through the donor and recipient groups'
committed logs, while closed-loop clients keep hammering 4 KB writes.

Watch for three things in the output:

* the throughput timeline dips while ranges migrate, then recovers past
  the 2-shard ceiling once 4 leaders share the load;
* the ack accounting: zero lost and zero duplicated acknowledgements
  across the epoch change (clients repair their routing tables from the
  maps servers ship with redirects);
* every per-shard history — including the two groups spun up mid-run —
  checks linearizable.

Run:  PYTHONPATH=src python examples/reshard_kv.py
"""

from repro.bench.live import ReshardSpec, run_reshard_experiment
from repro.shard import ShardedCluster
from repro.workload.ycsb import WorkloadConfig


def main():
    spec = ReshardSpec(
        protocol="raft",
        num_shards=2,           # before the split
        reshard_to=4,           # after
        reshard_at_s=4.0,       # trigger mid-run, under load
        placement="spread",
        clients_per_region=36,
        workload=WorkloadConfig(read_fraction=0.1, conflict_rate=0.0,
                                value_size=4096),
        duration_s=10.0, warmup_s=1.8, cooldown_s=0.5,
        seed=11, check_history=True,
    )
    print(f"== live reshard {spec.num_shards} -> {spec.reshard_to} at "
          f"t={spec.reshard_at_s:.1f}s, 4 KB writes, spread leaders ==\n")
    result = run_reshard_experiment(ShardedCluster(spec))

    print("throughput timeline (0.5 s buckets):")
    done_s = result.migration_completed_s or float("inf")
    for start, ops, _p99 in result.timeline:
        if start < spec.reshard_at_s:
            phase = "pre-split"
        elif start < done_s:
            phase = "MIGRATING"
        else:
            phase = "post-split"
        bar = "#" * int(ops / 25)
        print(f"  t={start:4.1f}s  {ops:7.1f} ops/s  {phase:<10} {bar}")

    print(f"\nsteady state: {result.pre_throughput:.1f} ops/s on 2 shards -> "
          f"{result.post_throughput:.1f} ops/s on 4 "
          f"({result.post_throughput / max(result.pre_throughput, 1e-9):.2f}x)")
    print(f"migration: {result.moves} key ranges in {result.migration_ms:.0f} ms "
          f"(epoch {result.final_epoch})")
    print(f"acks: {result.completed} completed, {result.acks_lost} lost, "
          f"{result.acks_duplicated} duplicated, "
          f"{result.duplicate_executions} writes executed twice")
    print(f"routing: {result.redirects} redirects, {result.capped_redirects} "
          f"hit the hop cap, {result.filtered} boundary commands bounced at "
          f"apply and re-routed")
    print("per-shard history checks: "
          + ("all linearizable across the epoch change" if result.linearizable
             else f"VIOLATIONS: {result.violations}"))


if __name__ == "__main__":
    main()
