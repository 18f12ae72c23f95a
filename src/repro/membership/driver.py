"""Driving one `ConfigChange` through a replica group's committed log.

The driver is the membership counterpart of a reshard step issuer: a
zero-cost node (like clients, it is not the measured resource) that
submits the encoded change as an ordinary client command and retries on
the jittered-exponential schedule until the group acknowledges it.  The
send ring rotates across the group's surviving replicas, so a dead first
hop — the common case, since a replacement is usually triggered *by* a
machine death — cannot wedge the transition.

At-most-once comes from the command's dedup identity: the client id is
unique per driver and the sequence number is the target config epoch, so
a retried change that already committed is answered from the group's
dedup window instead of re-entering the log (where the replicas' own
epoch guard would make it a no-op anyway — two independent layers).

The ack only says the change *entry* committed (and, for joint
consensus, that the transition has entered the joint phase).  Completion
of the whole transition — `final`/`alpha` applied — is observed by the
cluster through `on_apply_hooks`, not by this node.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.protocols.messages import ClientRequest, ConfigChange
from repro.sim.node import Node, NodeCosts
from repro.sim.units import ms, sec
from repro.workload.session import RetryPolicy, RingRetry

MEMBER_CLIENT_PREFIX = "__member__"

#: Change retries: comparable to the reshard step schedule — a WAN round
#: trip base, capped well below a lockstep worst case.
MEMBER_RETRY = RetryPolicy(retry_timeout=ms(500), retry_cap=sec(4),
                           backoff_base=ms(50), backoff_cap=ms(800))


class MembershipDriver(Node):
    """Submits one config change to a group and retries until acked."""

    def __init__(self, name, sim, network, site: str, ring: List[str],
                 change: ConfigChange, rng,
                 retry: RetryPolicy = MEMBER_RETRY,
                 on_ok: Optional[Callable[[], None]] = None) -> None:
        super().__init__(name, sim, network, site=site,
                         costs=NodeCosts(per_message=0, per_byte=0.0))
        self.command = change.encode(f"{MEMBER_CLIENT_PREFIX}:{name}",
                                     change.epoch)
        self.on_ok = on_ok
        self.acked = False
        self._retry = RingRetry(self, "member-retry", retry, rng)
        self.sim.schedule(0, lambda: self._retry.start(
            list(ring), ClientRequest(command=self.command)))

    def on_message(self, src: str, message) -> None:
        if self._retry.acknowledged(message) is None:
            return
        self.acked = True
        if self.on_ok is not None:
            self.on_ok()
