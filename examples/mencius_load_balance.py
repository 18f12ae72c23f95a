#!/usr/bin/env python
"""Mencius balances load across replicas (the Figure 10 scenario).

Saturates a 100%-write workload against single-leader Raft and against
Raft*-Mencius, printing per-replica CPU utilization: Raft pins one replica
at 100% while the rest idle, Mencius spreads the work and pushes more
operations through.

Run:  python examples/mencius_load_balance.py
"""

from repro.bench.harness import Cluster, ExperimentSpec
from repro.bench.report import FigureTable
from repro.sim.units import sec
from repro.workload.ycsb import WorkloadConfig


def run(protocol, mode=None):
    spec = ExperimentSpec(
        protocol=protocol,
        clients_per_region=60,
        duration_s=5.0,
        warmup_s=1.5,
        cooldown_s=0.5,
        workload=WorkloadConfig(read_fraction=0.0, conflict_rate=0.0),
        execution_mode=mode,
        seed=4,
    )
    cluster = Cluster(spec)
    result = cluster.run()
    # Each replica runs on its own host here, so the host's busy time is
    # the replica's.
    elapsed = sec(spec.duration_s)
    utils = {name.replace("r_", ""): min(1.0, replica.host.cpu_busy_us / elapsed)
             for name, replica in cluster.replicas.items()}
    return result, utils


def main():
    raft, raft_utils = run("raft")
    mencius, mencius_utils = run("mencius", mode="commutative")

    table = FigureTable(
        figure="Mencius demo",
        title="100% writes, 60 clients/region: throughput and CPU utilization",
        columns=["system", "ops/s"] + list(raft_utils),
    )
    table.add_row("Raft (leader=oregon)", raft.throughput_ops,
                  *[f"{u:.0%}" for u in raft_utils.values()])
    table.add_row("Raft*-Mencius", mencius.throughput_ops,
                  *[f"{u:.0%}" for u in mencius_utils.values()])
    print(table.render())
    print()
    gain = mencius.throughput_ops / raft.throughput_ops
    print(f"Mencius pushes {gain:.2f}x the operations through the same five")
    print("replicas: Raft's Oregon leader is pegged while its followers idle;")
    print("Mencius gives every region's replica the leader role for its own")
    print("slice of the log (indexes i with i mod 5 == rank).")


if __name__ == "__main__":
    main()
