"""Workload generation: pipelined client sessions and their driver.

`Session` is the core (pipeline window, retry policy, consistency levels,
at-most-once seq namespace); `ClosedLoopClient` is the generation policy
over it — closed loop, or open loop when given a Poisson `rate_per_sec`;
`ClientPlan` is the one spawn path every layer shares.
"""

from repro.protocols.types import Consistency
from repro.workload.clients import ClosedLoopClient
from repro.workload.plan import ClientPlan
from repro.workload.session import RetryPolicy, Session
from repro.workload.ycsb import WorkloadConfig

__all__ = [
    "ClientPlan",
    "ClosedLoopClient",
    "Consistency",
    "RetryPolicy",
    "Session",
    "WorkloadConfig",
]
