"""Runnable consensus protocols on the simulator.

The protocol zoo mirrors the paper's evaluation:

- `multipaxos`   — MultiPaxos (Figure 1).
- `raft`         — Raft (Figure 2 black text; erases follower extras).
- `raftstar`     — Raft* (Figure 2 incl. blue text; never erases, rewrites
                   per-entry ballots, merges safe values on election).
- `quorum_lease` — Paxos Quorum Leases written once: the `QuorumLease`
                   delta plus its two bindings, Raft*-PQL (the port) and
                   PQL on MultiPaxos (the optimization's original home).
- `leases`       — the grant/hold bookkeeping `QuorumLease` runs on.
- `leaderlease`  — Raft* + Leader Lease (the LL baseline of §5.1).
- `mencius`      — Raft*-Mencius / Coordinated Raft* and Coordinated Paxos
                   (round-robin instance ownership + skips).
- `base`         — `ReplicaBase`: client sessions, forwarding, the apply
                   pipeline, and the kernel seam both leadered families
                   call (DESIGN.md §14).
- `mux`          — the host-multiplexed transport: many group replicas on
                   one machine, cross-group message coalescing into
                   per-destination-host envelopes, merged leader beacons.
"""

from repro.protocols.config import ClusterConfig
from repro.protocols.mux import GroupMux, MuxDirectory
from repro.protocols.types import Ballot, Command, Entry, OpType

__all__ = [
    "Ballot",
    "ClusterConfig",
    "GroupMux",
    "MuxDirectory",
    "Command",
    "Entry",
    "OpType",
]
