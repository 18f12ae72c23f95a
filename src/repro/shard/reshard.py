"""Live resharding: epoch-versioned ownership and log-driven migration.

A reshard N -> M is a sequence of `RangeMove`s (see `partition`): each move
exports a hash range from its donor group and imports it into its recipient
group, both as ordinary commands through the groups' committed logs, so
every replica of a group flips ownership at the same log position:

* `MIGRATE_OUT` applied on the donor removes the range's records *and* the
  at-most-once dedup state of clients whose last command touched it, and
  returns the snapshot (the donor's leader ships it back to the
  coordinator in the reply);
* `MIGRATE_IN` applied on the recipient installs the snapshot.

`ShardOwnership` is the per-replica view: the set of owned hash ranges
(advanced by applied migrate commands) plus the newest epoch-stamped map
the replica has learned.  The ownership guard answers misrouted keys with
a hint under that newest map, and — when the requester's epoch is behind —
the map itself, which is how clients configured before a reshard repair
their routing tables.

The coordinator is no longer a single reliable node.  A transition is
driven by a **fleet**: one `ReshardCoordinator` per site, arbitrated by a
`ControlGroup` (see `repro.shard.control`).  Exactly one fleet member — the
lease-holding *owner* — issues migration steps; every cursor advance is a
journal record through the control log, so when the owner's host dies a
standby claims the role (first committed claim wins) and resumes at the
committed cursor in milliseconds.  Resumption is idempotent end to end:

* step sequence numbers are **deterministic** (`export of move i` is seq
  ``2i+1``, ``import`` is ``2i+2``) in a per-transition dedup namespace
  (``__reshard__:e<epoch>``), so a re-issued step from any fleet member is
  answered from the data groups' dedup caches instead of re-executing;
* in particular a takeover mid-import re-issues the *export* first — the
  donor's cached reply returns the original snapshot (system clients'
  dedup sessions are never migrated, see `KVStore.export_range`) — and
  then the import, neither applying twice.

Each step is sent with the jittered-exponential `RetryPolicy` every other
client uses, and rotates across the target group's replicas in other sites
after `RingRetry.ROTATE_AFTER` unanswered sends — a dead first-hop host no
longer wedges the migration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.recorder import MetricsRecorder
from repro.protocols.messages import ClientRequest, ShardMap
from repro.protocols.types import Command, OpType, Payload, payload_of
from repro.shard.control import ControlGroup, ReplicatedCoordinator
from repro.shard.partition import (
    HashRangePartitioner,
    RangeMove,
    VersionedPartitioner,
    add_range,
    key_point,
    ranges_contain,
    subtract_range,
)
from repro.sim.node import NodeCosts
from repro.sim.units import ms, sec
from repro.workload.session import RetryPolicy, RingRetry

RESHARD_CLIENT = "__reshard__"

#: Step retries: the old coordinator resent at a constant 1 s / backed off
#: at a constant 50 ms forever; this is the jittered-exponential schedule
#: (base comparable to one WAN round trip, capped well below the old
#: lockstep's worst case).
RESHARD_RETRY = RetryPolicy(retry_timeout=ms(500), retry_cap=sec(4),
                            backoff_base=ms(50), backoff_cap=ms(800))


class ShardOwnership:
    """One replica's epoch-versioned view of what its group owns."""

    def __init__(self, shard: int, versioned: VersionedPartitioner,
                 owned: bool = True) -> None:
        self.shard = shard
        self.map = versioned  # newest map this replica has learned
        if owned and shard < versioned.num_shards:
            span = versioned.range_of(shard)
            self.ranges: List[Tuple[int, int]] = [(span.start, span.stop)]
        else:
            # A group spun up mid-reshard owns nothing until it imports.
            self.ranges = []

    @property
    def epoch(self) -> int:
        return self.map.epoch

    def shard_map(self) -> ShardMap:
        return ShardMap(epoch=self.map.epoch, num_shards=self.map.num_shards)

    def owns_key(self, key: str) -> bool:
        return ranges_contain(self.ranges, key_point(key))

    def guard(self, command: Command) -> Optional[int]:
        """`ReplicaBase.ownership_guard`: None for keys this group owns,
        else the owner under the newest map this replica knows (which can
        transiently be this very group, for a range awaiting import — the
        router's hop cap turns that into backoff rather than a spin).
        Transactions — single-shard, and a 2PC prepare's share — are
        checked on every key they touch."""
        for key in self._guarded_keys(command):
            if not self.owns_key(key):
                return self.map.shard_of(key)
        return None

    @staticmethod
    def _guarded_keys(command: Command) -> List[str]:
        if command.op is OpType.TXN or command.op is OpType.TXN_PREPARE:
            return [key for _, key, _ in payload_of(command).get("ops", [])]
        return [command.key]

    def on_apply(self, replica: str, index: int, command: Command) -> None:
        """`on_apply_hooks` hook: advance ownership when a migrate command
        applies.  Idempotent, so dedup-suppressed duplicates are harmless."""
        if command.op is OpType.MIGRATE_OUT:
            meta = payload_of(command)
            self._learn(meta)
            self.ranges = subtract_range(self.ranges, meta["lo"], meta["hi"])
        elif command.op is OpType.MIGRATE_IN:
            meta = payload_of(command)
            self._learn(meta)
            self.ranges = add_range(self.ranges, meta["lo"], meta["hi"])

    def _learn(self, meta: Dict) -> None:
        if meta.get("epoch", -1) > self.map.epoch:
            self.map = VersionedPartitioner(
                HashRangePartitioner(meta["num_shards"]), meta["epoch"])


class ReshardControlPlane:
    """The fleet facade a cluster holds as `cluster.coordinator`: the
    transition's plan plus its completion state, fed by whichever fleet
    member finishes (or observes the committed `done` cursor) first."""

    def __init__(self, target: VersionedPartitioner, moves: List[RangeMove],
                 control: ControlGroup,
                 on_done: Optional[Callable[[], None]] = None) -> None:
        self.target = target
        self.moves = list(moves)
        self.control = control
        self.on_done = on_done
        self.coordinators: List["ReshardCoordinator"] = []
        self.completed_at: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def active(self) -> Optional["ReshardCoordinator"]:
        """The current lease-holding driver (by the sites[0] view)."""
        owner = self.control.view_of(self.control.sites[0]).owner
        for coordinator in self.coordinators:
            if coordinator.name == owner:
                return coordinator
        return None

    @property
    def failovers(self) -> int:
        return sum(c.failovers for c in self.coordinators)

    def finish(self, now: int) -> None:
        if self.completed_at is not None:
            return
        self.completed_at = now
        if self.on_done is not None:
            self.on_done()


class ReshardCoordinator(ReplicatedCoordinator):
    """One fleet member.  The lease-holding owner drives the plan move by
    move; standbys watch the owner's lease and claim the role on expiry,
    resuming from the journaled cursor.

    The cursor is a step index ``s``: step ``2i`` is move ``i``'s export,
    ``2i+1`` its import, ``2 * len(moves)`` is done.  ``adv`` records
    carry the *next* step to perform and max-merge, so duplicate journal
    appends (and full-log replay after a control-replica restart) are
    inert."""

    def __init__(self, name, sim, network, site: str, control: ControlGroup,
                 target: VersionedPartitioner, moves: List[RangeMove],
                 plane: ReshardControlPlane, rng,
                 retry: RetryPolicy = RESHARD_RETRY,
                 metrics: Optional[MetricsRecorder] = None) -> None:
        # Like clients, the coordinator is not the measured resource.
        super().__init__(name, sim, network, site, control, rng,
                         metrics=metrics,
                         costs=NodeCosts(per_message=0, per_byte=0.0))
        self.target = target
        self.moves = list(moves)
        self.plane = plane
        # Per-transition dedup namespace: successive reshards must not hit
        # each other's cached step replies.
        self.client_id = f"{RESHARD_CLIENT}:e{target.epoch}"
        self._step = self.stable.get("step", 0)
        # The migration step in flight (idle between steps).
        self._step_retry = RingRetry(self, "reshard-retry", retry, rng)
        # The owner a claim of ours in flight takes the role from.
        self._claiming: Optional[str] = None
        plane.coordinators.append(self)
        if self.is_owner:
            self.sim.schedule(0, self._drive)

    # -- role ---------------------------------------------------------------

    @property
    def is_owner(self) -> bool:
        return self.view.owner == self.name

    @property
    def done(self) -> bool:
        return self._step >= 2 * len(self.moves) or self.plane.done

    @property
    def completed_at(self) -> Optional[int]:
        return self.plane.completed_at

    def on_lease_tick(self) -> None:
        if self.done:
            return
        if self.is_owner:
            self.journal_lease()
            # Stall fallback: a takeover that raced a crash, or a recovery
            # with no step in flight, resumes here.
            if self._step_retry.request is None:
                self._drive()
        elif (self.view.owner is not None and self._claiming is None
              and self.owner_lease_expired()):
            self._claiming = self.view.owner
            self.journal({"k": "claim", "e": self.view.owner_epoch + 1,
                          "o": self.name})

    def on_control_record(self, record: Dict) -> None:
        kind = record.get("k")
        if kind == "adv":
            self._learn_step(record["s"])
            if record["s"] >= 2 * len(self.moves):
                self.plane.finish(self.sim.now)
        elif kind == "claim" and record.get("o") == self.name:
            claimed_from, self._claiming = self._claiming, None
            if (self.view.owner == self.name
                    and self.view.owner_epoch == record["e"]):
                # We won the rotation (first committed claim at this
                # epoch).  Guard against control-log replay re-counting.
                won = self.stable.setdefault("won_epochs", set())
                if record["e"] not in won:
                    won.add(record["e"])
                    if record["e"] > 1:
                        self.record_failover(claimed_from or "")
                self._drive()

    def _learn_step(self, step: int) -> None:
        if step > self._step:
            self._step = step
            self.stable["step"] = step

    # -- driving the plan ----------------------------------------------------

    def _meta(self, move: RangeMove) -> Dict:
        return {"lo": move.start, "hi": move.end,
                "epoch": self.target.epoch,
                "num_shards": self.target.num_shards}

    def _drive(self) -> None:
        if (not self.alive or not self.is_owner
                or self._step_retry.request is not None or self.plane.done):
            return
        if self._step >= 2 * len(self.moves):
            self.plane.finish(self.sim.now)
            return
        # Always (re)enter through the move's export: at an odd step (a
        # takeover mid-import) the donor's dedup cache returns the original
        # snapshot, which is the blob the import needs.
        move_idx = self._step // 2
        move = self.moves[move_idx]
        value = Payload(self._meta(move))
        self._issue(move.donor, Command(
            op=OpType.MIGRATE_OUT,
            key=f"reshard:{self.target.epoch}:{move.start}",
            value=value, client_id=self.client_id, seq=2 * move_idx + 1,
            value_size=len(value)))

    def _begin_import(self, move_idx: int, blob: str) -> None:
        move = self.moves[move_idx]
        self._issue(move.recipient, Command(
            op=OpType.MIGRATE_IN,
            key=f"reshard:{self.target.epoch}:{move.start}",
            value=blob, client_id=self.client_id, seq=2 * move_idx + 2,
            value_size=len(blob)))

    def _issue(self, shard: int, command: Command) -> None:
        # First hop is the group's replica in the coordinator's own site;
        # forwarding finds the leader, elections just delay the reply.
        # The ring continues through the other sites' replicas, so a dead
        # first-hop host cannot wedge the step.
        sites = self.control.sites
        start = sites.index(self.site) if self.site in sites else 0
        ordered = sites[start:] + sites[:start]
        self._step_retry.start(
            [f"g{shard}_r_{site}" for site in ordered],
            ClientRequest(command=command, epoch=self.target.epoch))

    def on_message(self, src: str, message) -> None:
        if self.handle_control_reply(message):
            return
        # A rejection (e.g. a freshly spun-up group mid-election) backs
        # off and retries — dedup makes the re-apply safe.
        request = self._step_retry.acknowledged(message)
        if request is None:
            return
        command = request.command
        move_idx = (command.seq - 1) // 2
        if command.op is OpType.MIGRATE_OUT:
            blob = Payload(dict(payload_of(message),
                                **self._meta(self.moves[move_idx])))
            self._advance(2 * move_idx + 1)
            self._begin_import(move_idx, blob)
        else:
            self._advance(2 * move_idx + 2)
            if self._step >= 2 * len(self.moves):
                self.plane.finish(self.sim.now)
            else:
                self._drive()

    def _advance(self, step: int) -> None:
        """Commit a cursor advance to the control log (fire-and-forget:
        the append retries until committed; a takeover before it commits
        just redoes an idempotent step)."""
        if step > self._step:
            self._learn_step(step)
            self.journal({"k": "adv", "s": step})

    # -- lifecycle -----------------------------------------------------------

    def on_crash(self) -> None:
        super().on_crash()
        self._step_retry.abandon()
        self._claiming = None

    def on_recover(self) -> None:
        super().on_recover()
        self._step = max(self._step, self.stable.get("step", 0))
        # If still (or again) the owner, the next lease tick resumes the
        # plan; if a standby took over meanwhile, we watch its lease now.
