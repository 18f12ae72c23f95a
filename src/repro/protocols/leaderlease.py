"""Leader Lease (LL): the §5.1 baseline.

"The leader has sole ownership of the lease, so only the leader can process
a read request with its local copy."  Followers forward reads (and writes)
to the leader; the leader answers reads from its applied state while its
lease is valid.

The lease here is the standard heartbeat-majority lease: the leader considers
itself lease-holder while it has heard append acknowledgements from a
majority of its voters (of Cold and of Cnew while joint) within the last
`lease_duration`.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.protocols.raftstar import RaftStarReplica
from repro.protocols.types import Command


class LeaderLeaseReplica(RaftStarReplica):
    """Raft* + leader-only read lease."""

    # The lease is heartbeat-majority: the leader holds it only while a
    # majority keeps ACKING its appends.  A merged host beacon is unacked,
    # so suppressing empty heartbeats would silently expire the lease on
    # an idle leader — keep the real keepalives.
    beacon_mergeable = False

    def __init__(self, name, sim, network, config) -> None:
        self._last_heard: Dict[str, int] = {}
        super().__init__(name, sim, network, config)
        self.local_reads_served = 0

    def _ack_received(self, peer: str, message: Any) -> None:
        self._last_heard[peer] = self.sim.now

    def has_leader_lease(self) -> bool:
        """Whether a quorum of every voter group, self included, acked
        within the last `lease_duration`: a non-voter's ack (a catching-up
        joiner, a retired replica) does not count."""
        if not self.is_leader:
            return False
        horizon = self.sim.now - self.config.lease_duration
        fresh = {peer for peer, at in self._last_heard.items()
                 if at >= horizon}
        fresh.add(self.name)
        return self._voters.quorum(fresh)

    def submit_command(self, command: Command) -> None:
        # LINEARIZABLE reads opt out of the lease path and go through
        # the log (`Command.allows_local_read`).
        if (command.is_read and command.allows_local_read
                and self.has_leader_lease()):
            self.local_reads_served += 1
            self.serve_local_read(command)
            return
        super().submit_command(command)

    def on_crash(self) -> None:
        super().on_crash()
        self._last_heard.clear()
