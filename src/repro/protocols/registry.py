"""The protocol registry: every runnable replica class by its spec name.

A module of its own (not the package `__init__`) because `repro.kvstore`
imports `repro.protocols.types`, and the replica classes import the
store: naming the classes from `__init__` would close that cycle.
"""

from __future__ import annotations

from typing import Dict

from repro.protocols.leaderlease import LeaderLeaseReplica
from repro.protocols.mencius import (
    CoordinatedPaxosReplica,
    RaftStarMenciusReplica,
)
from repro.protocols.multipaxos import MultiPaxosReplica
from repro.protocols.quorum_lease import (
    PaxosPQLReplica,
    QuorumLease,
    RaftStarPQLReplica,
)
from repro.protocols.raft import RaftReplica
from repro.protocols.raftstar import RaftStarReplica

PROTOCOLS: Dict[str, type] = {
    "raft": RaftReplica,
    "raftstar": RaftStarReplica,
    "raftstar-pql": RaftStarPQLReplica,
    "leaderlease": LeaderLeaseReplica,
    "multipaxos": MultiPaxosReplica,
    "paxos-pql": PaxosPQLReplica,
    "mencius": RaftStarMenciusReplica,
    "coorpaxos": CoordinatedPaxosReplica,
}

MENCIUS_PROTOCOLS = {"mencius", "coorpaxos"}

#: The protocols that answer a GET from a lease holder's local state,
#: without the log — and so without the 2PC lock table (DESIGN.md §6).
LEASE_READ_PROTOCOLS = frozenset(
    name for name, cls in PROTOCOLS.items()
    if issubclass(cls, (QuorumLease, LeaderLeaseReplica)))
