"""Sharded multi-group consensus.

The paper's Figure 10b shows a single leader's CPU and NIC egress are the
throughput ceiling of any leader-based protocol; Mencius spreads that load
by rotating instance ownership *within* one group.  Production systems
(Spanner-style deployments) spread it by *sharding*: many independent
consensus groups over a hash-partitioned keyspace, with leader placement as
a first-class scaling knob.  This package is that layer:

* `partition` — hash-range ownership of the YCSB keyspace;
* `placement` — leader-placement policies (`colocated` reproduces the
  Figure 10b bottleneck at shard granularity; `spread` recovers the
  Mencius insight by round-robining leaders across regions);
* `cluster` — N replica groups of any registered protocol over one shared
  simulator/network/topology, with per-shard and aggregate stats, the
  run's ack/safety `Accounting`, plus **live resharding**
  (`ShardedCluster.reshard`; instrumented in `repro.bench.live`);
* `router` — shard-aware routing/redirect/transaction policies over the
  pipelined `workload.Session` (capped redirect-on-wrong-shard,
  epoch-refreshing routing tables, `ShardRoutedClient.transact` for
  atomic multi-key transactions, closed- and open-loop drivers);
* `reshard` — epoch-versioned per-replica ownership and the migration
  coordinator that moves key ranges (and their dedup state) between
  groups through the committed log;
* `txn` — cross-shard transactions: two-phase commit where every protocol
  step goes through a participant group's committed log, with a
  decision-log-recovering `TxnCoordinator` and wait-die locking;
* `control` — the replicated control plane: each coordinator fleet
  journals leases, fences, and decisions through its own consensus group
  (`ControlGroup` + `ReplicatedCoordinator`), so a coordinator host loss
  fails over to a hot standby in milliseconds;
* `nemesis` — seeded fault injection (leader kills/partitions,
  coordinator crashes, coordinator *host* kills) for proving the above
  under failure.
"""

from repro.shard.control import ControlGroup, ReplicatedCoordinator

from repro.shard.cluster import (
    Accounting,
    ShardedCluster,
    ShardedResult,
    ShardedSpec,
    UnsupportedProtocolError,
    run_sharded_experiment,
)
from repro.shard.nemesis import Nemesis
from repro.shard.txn import (
    TxnCluster,
    TxnCoordinator,
    TxnResult,
    TxnSpec,
    TxnWorkloadClient,
    run_txn_experiment,
)
from repro.shard.partition import (
    HashRangePartitioner,
    Partitioner,
    RangeMove,
    VersionedPartitioner,
    plan_transition,
)
from repro.shard.placement import PLACEMENTS, LeaderPlacement, colocated, spread
from repro.shard.reshard import (
    ReshardControlPlane,
    ReshardCoordinator,
    ShardOwnership,
)
from repro.shard.router import ShardRouter, ShardRoutedClient

__all__ = [
    "Accounting",
    "ControlGroup",
    "HashRangePartitioner",
    "LeaderPlacement",
    "Nemesis",
    "PLACEMENTS",
    "Partitioner",
    "RangeMove",
    "ReplicatedCoordinator",
    "ReshardControlPlane",
    "ReshardCoordinator",
    "ShardOwnership",
    "ShardRoutedClient",
    "ShardRouter",
    "ShardedCluster",
    "ShardedResult",
    "ShardedSpec",
    "TxnCluster",
    "TxnCoordinator",
    "TxnResult",
    "TxnSpec",
    "TxnWorkloadClient",
    "UnsupportedProtocolError",
    "VersionedPartitioner",
    "colocated",
    "plan_transition",
    "run_sharded_experiment",
    "run_txn_experiment",
    "spread",
]
