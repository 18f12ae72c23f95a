"""The replicated application: a key-value store.

Exactly the paper's workload target: `Put(k, v)` / `Get(k)` over ~100 K
records.  Commands are applied exactly once per (client, seq) pair so that
retries and replays during leader changes stay idempotent.  Pipelined
sessions keep up to `depth` commands in flight per client, so the
at-most-once state is a **sliding window** per client (`DedupSession`):
a window of cached results keyed by seq, plus a low-water mark — stamped
by the client into every command (`Command.acked_low_water`) — below
which slots are acked and safe to evict.  Eviction is NOT by distance
from the newest seq: a dropped reply can leave the oldest in-flight seq
retrying long after far newer seqs applied, and its slot must survive
until the client itself acks it (see DESIGN.md §8).

Sharded deployments add three concerns:

* a **key filter** restricting the store to the keys its group owns (a
  safety net behind the router and the replica ownership guard);
* an **install order** of every write, kept only by a store with a key
  filter as one append-only record of ``(key, value)`` slots in apply
  order: range migration ships each key's part of it and the
  strict-serializability checker reads it, while a single group's checker
  derives write order from the applied commands — so a single-group store
  never grows one.  A member's version of a key is its number of installs,
  derived from the record; any other store counts versions instead;
* **range migration** (`MIGRATE_OUT` / `MIGRATE_IN` commands) for live
  resharding: a donor exports a hash range — the records *and* the
  dedup-window slots whose key lies in the range — and a recipient
  imports it (slots union, low-water marks join by max), both through the
  committed log so every replica of a group transitions at the same log
  position.

Cross-shard transactions (`repro.shard.txn`) add a fourth: the store is one
**participant** in two-phase commit, and every 2PC step is itself a
committed command, so the lock table and staged writes below are rebuilt
identically on every replica of the group (and by crash-recovery replay):

* `TXN_PREPARE` locks the keys, stages the writes, performs the reads, and
  votes — conflicts are resolved **wait-die** (an older transaction's
  prepare is told to wait and retried by its coordinator while it keeps
  its other locks; a younger one "dies" and is retried from scratch with
  its original priority, so it eventually becomes the oldest and wins);
* `TXN_COMMIT` installs the staged writes and releases the locks;
  `TXN_ABORT` drops them; both are idempotent;
* `TXN_DECIDE` records the coordinator's decision in the transaction's
  *home* shard — the first decision recorded wins, and the apply result
  always returns the winner, which is how a recovered coordinator's
  presumed-abort race against its own pre-crash decision stays safe;
* `TXN_RECOVER` fences a coordinator incarnation (stale prepares from the
  crashed incarnation are refused, so they cannot leave orphan locks) and
  reports the prepared transactions and logged decisions it must resolve.

Ordering matters: the duplicate check runs **before** the ownership check.
A retried command whose original already applied, but whose key has since
migrated away, must return the cached result — rejecting it would make the
client re-route and double-execute on the new owner.  Lock-conflict
rejections (`ApplyResult.conflict`) are deliberately NOT recorded in the
dedup tables: the client retries the same sequence number once the lock is
released, and the retry must actually apply.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.protocols.types import Command, OpType, Payload, payload_of
from repro.sim.sha import sha1


@dataclass(slots=True)
class ApplyResult:
    ok: bool
    value: Optional[str] = None
    # True when the command was rejected because this store does not own
    # its key — the replica turns this into a redirect, not a plain failure.
    wrong_shard: bool = False
    # True when the command was rejected because a prepared transaction
    # holds a lock on one of its keys.  Not dedup-recorded: the client's
    # retry with the same sequence number must apply once the lock clears.
    conflict: bool = False


# Shared success results for the hot plain-write path.  ApplyResult is
# never mutated after construction (results are cached in dedup windows
# and exported by value), so the no-payload successes can be singletons.
_OK = ApplyResult(ok=True)
_WRONG_SHARD = ApplyResult(ok=False, wrong_shard=True)
_CONFLICT = ApplyResult(ok=False, conflict=True)
_DONE = ApplyResult(ok=True, value=Payload({"done": True}))  # phase-2 acks


def _reply(command: Command, result: Mapping[str, Any]) -> ApplyResult:
    """`result` as a JSON success, encoded once per command: the first store
    to answer leaves its answer on the command's `Payload`; a later replica
    takes it only if its OWN result is equal — one that diverged gives its
    own.  The answer is a `Payload` too: its receiver reads it undecoded."""
    value = command.value
    memo = getattr(value, "memo", None)
    if memo is not None and memo.value.data == result:
        return memo
    reply = ApplyResult(ok=True, value=Payload(result))
    if memo is None and type(value) is Payload:
        Payload.memo.__set__(value, reply)
    return reply


def migrated_install_orders(command: Command) -> Mapping[str, Sequence[str]]:
    """Each moved key's values in the donor's install order, as a
    `MIGRATE_IN` carries them (`KVStore.import_range` installs them)."""
    return payload_of(command).get("write_log", {})


def _install_slots(orders: Mapping[str, Sequence[str]],
                   versions: Mapping[str, int]) -> List[str]:
    """Per-key install orders as install-record slots (key, value, key,
    value, ...).  A member's versions ARE its installs, so a payload whose
    versions count writes it carries no order for (a donor that keeps
    none) is refused rather than installed with its versions lost."""
    for key, version in versions.items():
        installs = len(orders.get(key, ()))
        if installs != version:
            raise ValueError(
                f"key {key!r}: version {version} but {installs} installs in "
                f"the order; a shard member takes its versions from the "
                f"install order")
    return [slot for key, values in orders.items()
            for value in values for slot in (key, value)]


class DedupSession:
    """One client's at-most-once window: a sliding set of cached results.

    Pipelined sessions keep up to `depth` commands in flight, and a
    dropped reply can leave the *oldest* of them retrying long after much
    newer sequence numbers applied — so eviction cannot be by distance
    from the newest seq.  Instead the client stamps every command with its
    **acked low-water mark** (`Command.acked_low_water`): the largest L
    such that every seq <= L has been acknowledged client-side.  Slots at
    or below L can never be retried (only stale retransmits of already
    answered requests can still arrive, and their replies are discarded by
    request-id matching), so they are safe to evict; everything above L
    stays cached.  The window therefore holds at most the client's
    pipeline depth of un-acked slots plus the acked ones the next command
    has not yet swept.

    `entries` maps seq -> (key, result); the key decides which slots
    travel with a migrated hash range (None for non-data commands, whose
    dedup must stay with the group the client talked to).
    """

    __slots__ = ("low_water", "entries")

    def __init__(self, low_water: int = -1,
                 entries: Optional[Dict[int, Tuple[Optional[str], ApplyResult]]] = None,
                 ) -> None:
        self.low_water = low_water
        self.entries: Dict[int, Tuple[Optional[str], ApplyResult]] = entries or {}

    def lookup(self, seq: int) -> Optional[ApplyResult]:
        """The cached duplicate answer for `seq`, or None if it is new.
        Evicted seqs (<= low_water) were acked: the bare ok marker is
        enough, the client discards the reply anyway."""
        if seq <= self.low_water:
            return _OK
        entry = self.entries.get(seq)
        return entry[1] if entry is not None else None

    def record(self, seq: int, key: Optional[str], result: ApplyResult) -> None:
        self.entries[seq] = (key, result)

    def evict_upto(self, low_water: int) -> None:
        """Advance the floor (monotonic) and drop the acked slots."""
        if low_water <= self.low_water:
            return
        self.low_water = low_water
        entries = self.entries
        # In place, not a dict rebuild: this runs on nearly every apply
        # (the floor advances with the client's pipeline) and the window
        # holds only a pipeline-depth of slots.
        acked = [seq for seq in entries if seq <= low_water]
        for seq in acked:
            del entries[seq]

    # -- migration wire format ----------------------------------------------

    def export_payload(self, entries: Dict[int, Tuple[Optional[str], ApplyResult]],
                       ) -> Dict:
        return {"low_water": self.low_water,
                "entries": {seq: [key, result.ok, result.value]
                            for seq, (key, result) in entries.items()}}

    @staticmethod
    def from_payload(payload) -> "DedupSession":
        """Parse a session as `export_payload` writes it."""
        entries = {
            int(seq): (key, ApplyResult(ok=ok, value=value))
            for seq, (key, ok, value) in payload.get("entries", {}).items()
        }
        return DedupSession(low_water=payload.get("low_water", -1),
                            entries=entries)

    def merge(self, other: "DedupSession") -> None:
        """Fold an imported window in: floors join by max (never regress),
        slots union (existing entries win — duplicates are identical)."""
        for seq, entry in other.entries.items():
            self.entries.setdefault(seq, entry)
        self.evict_upto(other.low_water)


class KVStore:
    """Deterministic state machine with at-most-once apply semantics."""

    def __init__(self, key_filter: Optional[Callable[[str], bool]] = None) -> None:
        self._table: Dict[str, str] = {}
        # A shard member's install order (see `set_key_filter`): every
        # write (PUT or committed txn write) as two slots, key then value,
        # in apply order — two references per write.  A member's version
        # of a key is its number of installs; every other store counts
        # versions and keeps no order.
        self._installs: Optional[List[str]] = None
        self._versions: Optional[Dict[str, int]] = {}
        # At-most-once state, one sliding window per client (see
        # `DedupSession`): retries of any in-window seq return the cached
        # result; the client-stamped low-water mark drives eviction.
        self._sessions: Dict[str, DedupSession] = {}
        self.applied_count = 0
        self.filtered_count = 0
        self.set_key_filter(key_filter)
        # -- 2PC participant state (all advanced only by applied commands,
        #    so every replica of the group holds identical copies) --------
        self._locks: Dict[str, str] = {}          # key -> holding txn handle
        self._staged: Dict[str, Dict[str, str]] = {}   # handle -> writes
        # The three below hold the commands' own shared, frozen payloads
        # by reference (`payload_of`); only `reads` is this replica's:
        # handle -> (prepare payload, reads), handle -> decision record,
        # txn id -> winning commit decision.
        self._txn_meta: Dict[str, Tuple[Mapping, Dict]] = {}
        self._decisions: Dict[str, Mapping] = {}
        self._txn_commits: Dict[str, Mapping] = {}
        self._txn_fence: Dict[str, int] = {}      # coordinator -> min incarnation
        # Hash ranges a refused MIGRATE_OUT is draining: new prepares for
        # fenced keys die so the existing locks can clear and the export's
        # retry can land (lifted when it does).  Plain reads/writes and
        # atomic single-shard TXNs keep being served — they hold no locks
        # across entries, so the snapshot at the export's log position
        # includes them.
        self._migrate_fences: set = set()         # {(lo, hi)}

    def set_key_filter(self, key_filter: Optional[Callable[[str], bool]]) -> None:
        """Restrict the store to the keys it owns (sharded deployments).

        Commands for keys outside the filter fail with `ok=False` instead
        of mutating state — a safety net behind the router: with correct
        shard routing it never fires, and `filtered_count` stays 0.

        Becoming a shard member also starts the install order (and stops
        the version counts it replaces): reshard ships it with a range and
        the strict-serializability checker reads it.  Both sharded build
        paths set the filter before the group applies anything, so the
        order is whole; a store filtered only after it wrote keeps
        counting versions and records no order (`install_orders` raises).
        """
        self.key_filter = key_filter
        if key_filter is not None and self._installs is None and not self._versions:
            self._installs = []
            self._versions = None

    def owns(self, key: str) -> bool:
        return self.key_filter is None or self.key_filter(key)

    def apply(self, command: Command) -> ApplyResult:
        """Apply a committed command; duplicate (client, seq) pairs return
        the original result without re-executing."""
        op = command.op
        if op is OpType.NOP:
            return _OK
        client = command.client_id
        # At-most-once first, ownership second: a duplicate whose key moved
        # to another shard after the original applied still gets its cached
        # result (the ownership check would wrongly fail it and trigger a
        # re-execution on the new owner once the client re-routes).
        session = None
        if client:
            session = self._sessions.get(client)
            if session is not None:
                cached = session.lookup(command.seq)
                if cached is not None:
                    return cached

        # PUT/GET first: the data fast path is ~all of a benchmark run,
        # with its bookkeeping inlined (refusals return before it).
        if op is OpType.PUT or op is OpType.GET:
            key = command.key
            key_filter = self.key_filter
            if key_filter is not None and not key_filter(key):
                self.filtered_count += 1
                return _WRONG_SHARD
            if self._locks and key in self._locks:
                # A prepared transaction holds this key: plain reads/writes
                # wait it out via the client's ordinary backoff-retry
                # machinery.
                return _CONFLICT
            if op is OpType.PUT:
                self._put_local(key, command.value if command.value is not None else "")
                result = _OK
            else:
                result = ApplyResult(ok=True, value=self._table.get(key))
            self.applied_count += 1
            if client:
                if session is None:
                    session = self._sessions[client] = DedupSession()
                session.entries[command.seq] = (key, result)
                if command.acked_low_water > session.low_water:
                    session.evict_upto(command.acked_low_water)
            return result

        if op is OpType.MIGRATE_OUT:
            result = self._apply_migrate_out(command)
        elif op is OpType.MIGRATE_IN:
            result = self._apply_migrate_in(command)
        elif op is OpType.TXN_PREPARE:
            result = self._apply_txn_prepare(command)
        elif op is OpType.TXN_COMMIT:
            result = self._apply_txn_finish(command, commit=True)
        elif op is OpType.TXN_ABORT:
            result = self._apply_txn_finish(command, commit=False)
        elif op is OpType.TXN_DECIDE:
            result = self._apply_txn_decide(command)
        elif op is OpType.TXN_RECOVER:
            result = self._apply_txn_recover(command)
        elif op is OpType.TXN:
            result = self._apply_txn_single(command)
        elif op is OpType.CONFIG:
            # A membership change mutates the PROTOCOL's voter view, not
            # the store: the replica reacts when this entry applies
            # (`ReplicaBase._on_config_applied`).  It still flows through
            # the dedup window below so a driver's retried change is
            # answered from cache instead of proposing a second epoch.
            result = _OK
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown op {op}")

        if result.conflict or result.wrong_shard:
            # Retryable refusals — a held lock, a draining migration, a
            # misrouted or migrated-away key — NEVER burn the client's
            # dedup slot: the retry with the same sequence number must
            # actually apply once the lock clears or the client re-routes.
            return result

        self.applied_count += 1
        if client:
            if session is None:
                session = self._sessions[client] = DedupSession()
            # Non-data commands (migration, 2PC steps) record no key: the
            # coordinator's dedup state stays on the group it talked to.
            session.record(command.seq,
                           command.key if command.is_data else None, result)
            session.evict_upto(command.acked_low_water)
        return result

    def apply_batch(self, log, start: int, stop: int) -> None:
        """Apply the committed entries ``log[start:stop]`` in order, one
        `apply()` call per entry, discarding the results.

        Nothing in the runtime calls this: every family applies through
        `ReplicaBase._apply_to`.  It stays only because the ledger
        benchmark's tracer (`benchmarks/ledger/trace.py`) wraps it by
        name; the two go together."""
        apply = self.apply
        for index in range(start, stop):
            apply(log[index].command)

    def _put_local(self, key: str, value: str) -> None:
        self._table[key] = value
        installs = self._installs
        if installs is None:
            versions = self._versions
            versions[key] = versions.get(key, 0) + 1
        else:
            installs.append(key)
            installs.append(value)

    # -- transactions (2PC participant) --------------------------------------

    def _apply_txn_single(self, command: Command) -> ApplyResult:
        """A single-shard transaction: every op applies atomically in one
        log entry, respecting the 2PC lock table (so single-shard and
        cross-shard transactions serialize against each other)."""
        ops = payload_of(command).get("ops", [])
        keys = [key for _, key, _ in ops]
        if any(not self.owns(key) for key in keys):
            self.filtered_count += 1
            return _WRONG_SHARD
        if any(key in self._locks for key in keys):
            return _CONFLICT
        reads: Dict[str, Optional[str]] = {}
        for op, key, value in ops:
            if op == "get":
                reads[key] = self._table.get(key)
            else:
                self._put_local(key, value if value is not None else "")
        return _reply(command, {"reads": reads})

    def _apply_txn_prepare(self, command: Command) -> ApplyResult:
        """Lock-stage-read-vote.  Deterministic per log position, so every
        replica of the group casts the identical vote and holds the
        identical lock table."""
        meta = payload_of(command)
        handle = meta["handle"]
        if meta["inc"] < self._txn_fence.get(meta["coord"], -1):
            # A prepare from a fenced (crashed) coordinator incarnation:
            # refusing it here is what keeps orphan locks impossible.
            return _reply(command, {"vote": "no", "reason": "fenced"})
        if handle in self._staged:
            # Re-prepare of an already-granted attempt (lost reply, new
            # sequence number): idempotent re-vote.
            return _reply(command, {"vote": "yes",
                                    "reads": self._txn_meta[handle][1]})
        keys = [key for _, key, _ in meta["ops"]]
        if any(not self.owns(key) for key in keys):
            self.filtered_count += 1
            return _reply(command, {"vote": "no", "reason": "wrong_shard"})
        if self._fenced(keys):
            # The key's range is draining for a refused migration: voting
            # no (die-and-retry) here is what lets the existing locks
            # clear — otherwise a steady 2PC stream could re-lock the
            # range forever and the export would never find its window.
            return _reply(command, {"vote": "no", "reason": "migrating"})
        verdict = "yes"
        for key in keys:
            holder = self._locks.get(key)
            if holder is None:
                continue
            held = self._txn_meta.get(holder)
            if (meta["ts"], handle) < (held[0].get("ts", -1) if held else -1,
                                       holder):
                # Requester is older: wait (its coordinator re-sends this
                # prepare while the transaction keeps its other locks).
                verdict = "wait" if verdict == "yes" else verdict
            else:
                # Requester is younger: die (abort + retry from scratch
                # with the original ts, so its priority only ever ages).
                verdict = "no"
        if verdict != "yes":
            return _reply(command, {"vote": verdict, "reason": "conflict"})
        reads: Dict[str, Optional[str]] = {}
        writes: Dict[str, str] = {}
        for op, key, value in meta["ops"]:
            if op == "get":
                reads[key] = self._table.get(key)
            else:
                writes[key] = value if value is not None else ""
        for key in keys:
            self._locks[key] = handle
        self._staged[handle] = writes
        self._txn_meta[handle] = (meta, reads)
        return _reply(command, {"vote": "yes", "reads": reads})

    def _apply_txn_finish(self, command: Command, commit: bool) -> ApplyResult:
        """Phase 2: install (commit) or drop (abort) the staged writes and
        release the locks.  Idempotent — an unknown handle is a finished or
        never-prepared attempt, both of which are no-ops."""
        handle = payload_of(command)["handle"]
        staged = self._staged.pop(handle, None)
        if staged is not None:
            if commit:
                for key in sorted(staged):
                    self._put_local(key, staged[key])
            # Release exactly the keys `handle` locked at prepare (its
            # ops; the staged writes are a subset) — in place, not a
            # rebuild over every lock held by anyone.
            locks = self._locks
            for _, key, _ in self._txn_meta.pop(handle)[0]["ops"]:
                if locks.get(key) == handle:
                    del locks[key]
        return _DONE

    def _apply_txn_decide(self, command: Command) -> ApplyResult:
        """Record the coordinator's decision; the FIRST decision for a
        handle wins and the reply always carries the winner, so a recovered
        coordinator racing its own pre-crash decision converges on one
        outcome.

        Commits are additionally first-wins *per transaction*: with
        coordinator failover a client can retry one txn through a second
        coordinator while the first attempt's commit is still in flight.
        The second attempt's commit-decide finds the transaction already
        committed under another handle and is bound to ABORT, with the
        winning record attached so the losing coordinator can answer the
        client from the winner's result.  Abort decisions bind only their
        own handle — a presumed-abort of one attempt must not block the
        transaction from committing on a later attempt."""
        meta = payload_of(command)
        handle, txn = meta["handle"], meta.get("txn")
        existing = self._decisions.get(handle)
        if existing is None:
            if meta.get("outcome") == "commit" and txn is not None:
                winner = self._txn_commits.get(txn)
                if winner is None:
                    self._txn_commits[txn] = meta
                elif winner["handle"] != handle:
                    meta = dict(meta, outcome="abort", winner=winner)
            self._decisions[handle] = meta
            existing = meta
        return _reply(command, existing)

    def _apply_txn_recover(self, command: Command) -> ApplyResult:
        """Fence the coordinator's crashed incarnations, then report every
        prepared transaction and logged decision it owns.  Ordered through
        the log, so any prepare committed before this query is visible in
        the report and any prepare still in flight behind it is fenced."""
        meta = payload_of(command)
        coord = meta["coord"]
        self._txn_fence[coord] = max(self._txn_fence.get(coord, -1), meta["inc"])
        # Tuples, as a frozen payload carries arrays: `_reply` compares this
        # report with the one the group's first replica left.
        prepared = tuple(dict(held, reads=reads)
                         for _, (held, reads) in sorted(self._txn_meta.items())
                         if held.get("coord") == coord)
        decisions = tuple(self._decisions[handle]
                          for handle in sorted(self._decisions)
                          if self._decisions[handle].get("coord") == coord)
        return _reply(command, {"prepared": prepared, "decisions": decisions})

    # -- range migration ----------------------------------------------------

    def export_range(self, lo: int, hi: int) -> Dict:
        """Remove and return everything owned in hash range [lo, hi): the
        records, their versions, and every client's dedup-window slots
        whose key lies in the range (the low-water mark is copied, not
        moved — both sides keep the floor, which only ever rises).
        Deterministic: replicas applying the same log prefix export
        identical snapshots."""
        from repro.shard.partition import key_point  # lazy: kvstore sits below shard

        moved = sorted(k for k in self._table if lo <= key_point(k) < hi)
        table = {k: self._table.pop(k) for k in moved}
        write_log: Dict[str, List[str]] = {}
        installs = self._installs
        if installs is None:
            versions = {k: self._versions.pop(k) for k in moved
                        if k in self._versions}
        else:
            # The install order travels too: the strict-serializability
            # checker anchors on it, and a reshard must not amputate a
            # key's history prefix.  One pass splits the record by hash
            # range, not by `moved`; the versions are the moved counts.
            kept: List[str] = []
            slots = iter(installs)
            for key, value in zip(slots, slots):
                if lo <= key_point(key) < hi:
                    write_log.setdefault(key, []).append(value)
                else:
                    kept += (key, value)
            self._installs = kept
            versions = {k: len(write_log[k]) for k in moved if k in write_log}
        sessions = {}
        for client in sorted(self._sessions):
            # System clients (coordinators, reshard drivers — "__"-prefixed)
            # keep their dedup windows on the donor: the reshard driver's
            # own cached step replies must stay answerable from here, or a
            # failed-over driver redoing an export would re-execute it
            # against the already-emptied range and install an empty
            # snapshot.
            if client.startswith("__"):
                continue
            session = self._sessions[client]
            taken = {seq: entry for seq, entry in session.entries.items()
                     if entry[0] is not None and lo <= key_point(entry[0]) < hi}
            if not taken:
                continue
            for seq in taken:
                del session.entries[seq]
            sessions[client] = session.export_payload(taken)
        return {"table": table, "versions": versions, "sessions": sessions,
                "write_log": write_log}

    def import_range(self, payload: Dict) -> int:
        """Install an exported range: records, versions (a member: install
        orders), and dedup windows (slots union, floors join by max — an
        already-present slot or a higher floor never regresses)."""
        installs = self._installs
        if installs is None:
            self._versions.update(payload.get("versions", {}))
        else:
            orders = payload.get("write_log", {})
            imported = _install_slots(orders, payload.get("versions", {}))
            if any(key in self._table for key in orders):
                # The imported history is the key's prefix: writes the
                # importer somehow already has (none, under correct
                # routing) stay after.
                self._installs = imported + installs
            else:
                installs += imported
        self._table.update(payload.get("table", {}))
        for client, exported in payload.get("sessions", {}).items():
            session = self._sessions.setdefault(client, DedupSession())
            session.merge(DedupSession.from_payload(exported))
        return len(payload.get("table", {}))

    def _apply_migrate_out(self, command: Command) -> ApplyResult:
        meta = payload_of(command)
        lo, hi = meta["lo"], meta["hi"]
        if self._range_locked(lo, hi):
            # A prepared (voted) 2PC transaction holds keys in the range.
            # Exporting now would strand its staged writes on a group that
            # no longer owns them — phase 2 would install ghost writes the
            # new owner never sees.  Refuse, and fence the range against
            # NEW prepares so the held locks drain (wait-die guarantees
            # they clear); the coordinator's backoff-retry picks the
            # export up again.  Deterministic: the lock table is
            # replicated state, so every replica of the group refuses —
            # and fences — at the same log position.
            self._migrate_fences.add((lo, hi))
            return ApplyResult(ok=False, conflict=True)
        self._migrate_fences.discard((lo, hi))
        export = self.export_range(lo, hi)
        return ApplyResult(ok=True, value=json.dumps(export, sort_keys=True))

    def _range_locked(self, lo: int, hi: int) -> bool:
        from repro.shard.partition import key_point  # lazy: kvstore sits below shard

        return any(lo <= key_point(key) < hi for key in self._locks)

    def _fenced(self, keys: List[str]) -> bool:
        if not self._migrate_fences:
            return False
        from repro.shard.partition import key_point  # lazy: kvstore sits below shard

        points = [key_point(key) for key in keys]
        return any(lo <= point < hi
                   for point in points for lo, hi in self._migrate_fences)

    def _apply_migrate_in(self, command: Command) -> ApplyResult:
        imported = self.import_range(payload_of(command))
        return ApplyResult(ok=True, value=str(imported))

    # -- reads / introspection ----------------------------------------------

    def read_local(self, key: str) -> Optional[str]:
        """Local (lease-protected) read path; does not go through the log."""
        return self._table.get(key)

    def version(self, key: str) -> int:
        """Number of writes applied to `key` (used by safety checkers).  On
        a shard member this scans the install record: to read many keys,
        take `versions()` once."""
        installs = self._installs
        if installs is None:
            return self._versions.get(key, 0)
        return installs[::2].count(key)

    def versions(self) -> Mapping[str, int]:
        """Every written key's version, read-only.  A shard member derives
        them in one pass over its install record, so whole-run accounting
        takes them once per store."""
        installs = self._installs
        if installs is None:
            return MappingProxyType(self._versions)
        return MappingProxyType(Counter(islice(installs, 0, None, 2)))

    def _record(self) -> List[str]:
        if self._installs is None:
            raise RuntimeError(
                "this store keeps no install order: only a shard member "
                "(a store with a key filter) records one; a single group's "
                "write order comes from its applied commands "
                "(HistoryChecker)")
        return self._installs

    def _orders(self) -> Dict[str, List[str]]:
        """Each key's installed values in apply order, in one pass over
        the install record (fresh lists: nothing aliases the store)."""
        orders: Dict[str, List[str]] = {}
        slots = iter(self._record())
        for key, value in zip(slots, slots):
            order = orders.get(key)
            if order is None:
                orders[key] = [value]
            else:
                order.append(value)
        return orders

    def install_orders(self) -> Mapping[str, Sequence[str]]:
        """Read-only map of every key's install order (key -> values in
        apply order) — the per-key version order the strict-serializability
        checker anchors on.  Only a shard member keeps one: on any other
        store this raises rather than answer an empty order, which would
        make that checker vacuous."""
        return MappingProxyType(self._orders())

    def write_order(self, key: str) -> List[str]:
        """Every value installed at `key`, in apply order (a copy; see
        `install_orders`)."""
        installs = self._record()
        return [value for installed, value
                in zip(installs[::2], installs[1::2]) if installed == key]

    def locked_keys(self) -> Dict[str, str]:
        """Current prepared-lock table (key -> holding handle)."""
        return dict(self._locks)

    @property
    def lock_count(self) -> int:
        """Current prepared-lock table size (the repro.obs gauge probe)."""
        return len(self._locks)

    def prepared_handles(self) -> List[str]:
        return sorted(self._staged)

    def snapshot(self) -> Dict[str, str]:
        return dict(self._table)

    # -- catch-up snapshots (dynamic membership) -----------------------------

    def export_full(self) -> Dict:
        """The whole store as a catch-up snapshot: records, versions,
        per-key install orders (if kept), and every client's dedup window —
        everything a joining replica needs so that replaying the log
        suffix after the snapshot position reproduces the donor's state
        machine exactly (the property `tests/membership` pins with
        `digest`)."""
        orders = None if self._installs is None else self._orders()
        snapshot = {
            "table": dict(self._table),
            "versions": (dict(self._versions) if orders is None else
                         {key: len(order) for key, order in orders.items()}),
            "sessions": {client: session.export_payload(dict(session.entries))
                         for client, session in sorted(self._sessions.items())},
            "applied": self.applied_count,
        }
        if orders is not None:
            snapshot["write_log"] = orders
        return snapshot

    def install_full(self, payload: Dict) -> None:
        """Install a catch-up snapshot into a FRESH store (replaces, not
        merges — a joiner starts empty).  A shard member takes the install
        order (its versions are derived from it); any other store, the
        versions."""
        self._table = dict(payload.get("table", {}))
        if self._installs is None:
            self._versions = dict(payload.get("versions", {}))
        else:
            self._installs = _install_slots(payload.get("write_log", {}),
                                            payload.get("versions", {}))
        self._sessions = {
            client: DedupSession.from_payload(exported)
            for client, exported in payload.get("sessions", {}).items()
        }
        self.applied_count = payload.get("applied", 0)

    def digest(self) -> str:
        """Stable content digest of the replicated state.  Two stores that
        processed the same committed commands — directly, or via a
        catch-up snapshot plus the log suffix — report the same digest."""
        payload = json.dumps(self.export_full(), sort_keys=True)
        return sha1(payload.encode()).hexdigest()

    def __len__(self) -> int:
        return len(self._table)
