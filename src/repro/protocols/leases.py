"""Quorum leases (Paxos Quorum Leases, Moraru et al. 2014).

A `LeaseManager` runs on every replica.  Each replica *grants* a read lease
to every replica (including itself) and renews it every `lease_renew_interval`
for `lease_duration` (the paper's §5.1 parameters: 0.5 s / 2 s).  A replica
*holds a quorum lease* when it holds valid grants from a majority of
replicas.

The safety contract is the one §4.4/Appendix A.1 describes: any lease quorum
intersects any Paxos quorum, and every replica in a Paxos quorum notifies its
granted holders before a value commits — the protocol layer enforces the
second half by making the leader wait for acks from all *active holders*
before advancing the commit index.

Grantors track holder liveness through `LeaseAck`s, so a crashed holder stops
blocking writes within one lease duration.

The two questions asked per operation — "do I hold a quorum lease?" and "who
holds my grants?" — are answered from *deadlines* derived when a grant or an
ack arrives (a few times per renew interval), not by walking the expiry
tables per call: the answers only change at those arrivals or when a known
expiry passes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.protocols.messages import LeaseAck, LeaseGrant


class LeaseManager:
    """Grant/hold bookkeeping for one replica."""

    def __init__(self, replica, duration: int, renew_interval: int) -> None:
        self.replica = replica
        self.duration = duration
        self.renew_interval = renew_interval
        # grants I issued: holder -> expiry of the grant itself
        self.granted: Dict[str, int] = {}
        # acks I received for my grants: holder -> expiry of the acked grant
        self.acked: Dict[str, int] = {}
        # grants I hold: grantor -> expiry
        self.held: Dict[str, int] = {}
        # Derived from `held`: grants from `_quorum_size` replicas stay
        # valid through `_quorum_until` (-1: fewer than that many held).
        self._quorum_size = 0
        self._quorum_until = -1
        # Derived from `acked`: the holder set, exact through
        # `_holders_until` (its earliest expiry; -1: recompute).
        self._holders: FrozenSet[str] = frozenset()
        self._holders_until = -1
        self._renew_timer = replica.timer("lease-renew")

    # -- grantor side -------------------------------------------------------

    def start(self) -> None:
        # Defer the first grant round until all replicas have registered.
        self.replica.sim.schedule(0, self._renew)

    def stop(self) -> None:
        self._renew_timer.cancel()

    def _renew(self) -> None:
        now = self.replica.sim.now
        expiry = now + self.duration
        self.granted[self.replica.name] = expiry
        self.acked[self.replica.name] = expiry
        self.held[self.replica.name] = expiry
        self._holders_until = -1
        self._refresh_quorum()
        # A replica may fan out appends to more nodes than it leases to —
        # members removed by a config change linger in `peers` as learners
        # for one lease duration so the commit wait drains, but granting
        # them fresh leases would keep them lease holders forever.
        for peer in self.replica.lease_peers():
            self.granted[peer] = expiry
            self.replica.send(peer, LeaseGrant(
                grantor=self.replica.name, holder=peer, expiry=expiry,
            ))
        self._renew_timer.arm(self.renew_interval, self._renew)

    def on_ack(self, message: LeaseAck) -> None:
        self.acked[message.holder] = max(self.acked.get(message.holder, 0), message.expiry)
        self._holders_until = -1

    def active_holders(self) -> FrozenSet[str]:
        """Holders of my grants that are still alive (acked recently).
        The same frozenset is returned until an ack arrives or the
        earliest expiry in it passes."""
        now = self.replica.sim.now
        if now > self._holders_until:
            live = {holder: expiry for holder, expiry in self.acked.items()
                    if expiry >= now}
            self._holders = frozenset(live)
            self._holders_until = min(live.values(), default=now)
        return self._holders

    # -- holder side -----------------------------------------------------------

    def on_grant(self, src: str, message: LeaseGrant) -> None:
        self.held[message.grantor] = max(self.held.get(message.grantor, 0), message.expiry)
        self._refresh_quorum()
        self.replica.send(src, LeaseAck(
            holder=self.replica.name, grantor=message.grantor, expiry=message.expiry,
        ))

    def valid_grant_count(self) -> int:
        now = self.replica.sim.now
        return sum(1 for expiry in self.held.values() if expiry >= now)

    def has_quorum_lease(self) -> bool:
        """PQL Figure 8 line 3: validLeasesNum >= f + 1 (self included) —
        i.e. the (f+1)-th latest held expiry has not passed."""
        if self.replica.config.majority != self._quorum_size:
            self._refresh_quorum()
        return self.replica.sim.now <= self._quorum_until

    def _refresh_quorum(self) -> None:
        majority = self.replica.config.majority
        expiries = sorted(self.held.values(), reverse=True)
        self._quorum_size = majority
        self._quorum_until = (expiries[majority - 1]
                              if len(expiries) >= majority else -1)

    # -- fault handling ---------------------------------------------------------

    def on_crash(self) -> None:
        # The replica's crash has cancelled the renew timer.
        self.granted.clear()
        self.acked.clear()
        self.held.clear()
        self._holders_until = -1
        self._quorum_until = -1
