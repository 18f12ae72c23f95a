"""Cross-shard transactions: two-phase commit over consensus groups.

The paper's thesis is that Paxos and Raft are interchangeable underneath
protocol-agnostic machinery; this module is the strongest composition test
of that claim in the repo: a 2PC layer built purely against the
`ReplicaBase` command-log interface, so it runs unchanged over any
registered leader-based protocol.

Every 2PC step is an **ordinary command through a participant group's
committed log** (see `KVStore._apply_txn_*`), which buys the two fault
properties the Howard & Mortier comparison says matter:

* a participant survives its leader crashing mid-transaction — the
  PREPARE (locks + staged writes + vote) is replicated state, so the new
  leader answers the coordinator's retry from the same lock table (or the
  dedup cache, if the crashed leader already applied it);
* the **votes are replicated too**, so they are the decision: this is
  Gray & Lamport's Paxos Commit, with each group's log as the acceptors
  of its participant's vote.  Once every participant has logged a yes
  vote the transaction is committed, whoever learns it.

So the last yes vote is the **commit point**, and the client is answered
there: one consensus round (prepare) on its path.  Phase 2 finishes in
the background: the home shard's `TXN_COMMIT` carries the decision record
and binds it in the home log, then the other participants install.  That
home record is the one record of the transaction's outcome: no
coordinator caches a reply or journals the commit anywhere else.  No
log-ordered read can go around the early answer — the staged keys stay
locked until `TXN_COMMIT` applies, so a later prepare or single-shard
`TXN` touching them waits, dies or conflicts (lease-local GETs do not
consult the locks, so `TxnCluster` refuses the protocols that serve
them; DESIGN.md §6).

The coordinator fleet has no single reliable node left.  Each site's
coordinator shares a host with that site's control replica, renews a
lease through the control journal, and watches its peers' leases; when
one expires, a standby journals a `take` that raises the victim's fence
epoch, and the winning janitor sweeps every shard with `TXN_RECOVER` —
which raises the store-side fence (in-flight prepares stamped below it
are refused rather than left holding orphan locks) and reports the
victim's transactions prepared below the fence.  A handle that every
participant reports prepared is committed; any other is aborted, and the
abort is bound in the home shard first, where the first decision recorded
wins (so a commit already bound there is honored and finished).  A victim that was alive after all keeps its newer
attempts — stamped at the take's epoch, so the fence does not make their
reports final — and finishes them itself.  A recovered coordinator runs
the same sweep on itself under a fresh fence epoch granted by the
control journal.

Clients hold a coordinator ring and move to the next site's coordinator
on every unanswered send, so a dead coordinator host costs one client
retry timeout (5 s by default), not a crash-restart window.  Every retry
— to the same coordinator, a rotated one or a recovered one — starts a
fresh attempt, kept at-most-once by the home shard: sibling attempts
lock the same home keys, so only one holds them at a time, and the one
that commits binds the transaction there before its home locks release;
a later sibling's prepare votes no with the winning record attached, and
its coordinator answers the client from the winner.  The record names the
home keys and moves with their range in a reshard, so it meets the retry
wherever those keys live.

Conflicts are resolved wait-die (see `store.py`): the older transaction
re-sends the conflicted prepare while keeping its other locks; the
younger aborts and retries with its original timestamp, so every
transaction eventually becomes oldest and commits — deadlock-free without
any cross-group waits-for graph.  Pure wound-wait cannot be ported here:
once a participant's PREPARE is applied it has voted yes through its log,
and 2PC forbids unilaterally aborting a voted participant — so the wound
branch is only available against transactions that have not locked yet,
which is exactly the wait-die half of the family.

Single-shard transactions skip all of this: `ShardRoutedClient.transact`
sends them as one atomic `TXN` command through the owning group's log
(respecting the 2PC lock table), which is why the 0 % cross-shard figure
tracks plain sharded throughput.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.kvstore.checker import TxnEvent, check_strict_serializability
from repro.metrics.recorder import MetricsRecorder
from repro.protocols.messages import ClientReply, ClientRequest, TxnReply, TxnRequest
from repro.protocols.registry import LEASE_READ_PROTOCOLS
from repro.protocols.types import Command, OpType, Payload, payload_of
from repro.shard.cluster import Accounting, ShardedCluster, ShardedSpec
from repro.shard.control import ControlGroup, ReplicatedCoordinator
from repro.shard.partition import ring_point
from repro.shard.router import ShardRoutedClient, ShardRouter, TxnOps
from repro.sim.node import NodeCosts
from repro.sim.units import ms, sec
from repro.workload.ycsb import WorkloadConfig

TXN_CLIENT_PREFIX = "__txn__:"
TXN_RECOVER_PREFIX = "__txnrec__:"


class _TxnState:
    """One in-flight transaction attempt at the coordinator."""

    __slots__ = ("txn_id", "client_node", "ops", "ts", "handle", "participants",
                 "home", "phase", "pending", "sent_at", "waiting", "reads",
                 "retries", "trace", "winner", "command_key", "inc", "coord",
                 "outcome", "bind_seq")

    def __init__(self, txn_id: str, client_node: Optional[str], ops: TxnOps,
                 ts: int, handle: str, participants: Dict[int, TxnOps],
                 retries: int = 0, inc: int = 0, coord: str = "") -> None:
        self.txn_id = txn_id
        # Span id (repro.obs): same derivation the issuing client uses, so
        # coordinator-side phases and the stamped child commands' replica
        # phases all join the client's transaction span.
        client, txn_seq = txn_id.rsplit(":", 1)
        self.trace = f"{client}:t{txn_seq}"
        self.client_node = client_node
        self.ops = ops
        self.ts = ts
        self.handle = handle
        self.participants = participants
        self.home = min(participants) if participants else 0
        # prepare | bind (the home shard's decision-carrying phase-2 step)
        # | commit / abort (the rest of phase 2)
        self.phase = "prepare"
        # The decision a `bind` carries to the home shard.
        self.outcome = "commit"
        self.pending: Dict[int, Command] = {}  # shard -> awaiting reply
        self.sent_at: Dict[int, int] = {}      # shard -> last send time
        self.waiting: set = set()       # shards between a "wait" vote and
                                        # the re-prepare (no command in flight)
        self.reads: Dict[str, Optional[str]] = {}
        self.retries = retries
        # The committed decision of ANOTHER attempt of this transaction,
        # when our home commit lost the per-transaction first-wins race.
        self.winner: Optional[Dict] = None
        # The key of every command this attempt sends, built once: the
        # commands (and the logs holding them) share the text.
        self.command_key = f"txn:{handle}"
        # The fence epoch every prepare of this attempt is stamped with —
        # the one it started under, never a later one: once a janitor's
        # fence has read a participant as unprepared, no re-prepare of the
        # attempt may land there and complete its yes votes.
        self.inc = inc
        # The coordinator a decision for this handle is logged under: the
        # attempt's owner, also when a janitor cleans it up, so the
        # owner's own later sweep still sees it.
        self.coord = coord
        # The seq of the home step that bound the decision: its slot stays
        # open until phase 2 is done, and the home store keeps the
        # decision while it is (`KVStore._bind_decision`).
        self.bind_seq = 0

    @property
    def all_prepared(self) -> bool:
        return not self.pending and not self.waiting


class _Sweep:
    """One in-flight `TXN_RECOVER` fan-out: the fenced sweep of a dead (or
    just-recovered) coordinator's shards, collecting its prepared
    transactions with the shards that report each."""

    __slots__ = ("victim", "fe", "pending", "sent_at", "prepared")

    def __init__(self, victim: str, fe: int) -> None:
        self.victim = victim
        self.fe = fe
        self.pending: Dict[int, Command] = {}   # shard -> awaiting report
        self.sent_at: Dict[int, int] = {}       # shard -> last send time
        self.prepared: Dict[str, Dict[int, Dict]] = {}  # handle -> shard -> meta


class TxnCoordinator(ReplicatedCoordinator):
    """Drives 2PC for its clients' cross-shard transactions.

    One coordinator per site, each a hot standby for the others; clients
    talk to the local one and move to the next one in their ring each
    time a send goes unanswered for a client retry timeout (5 s by
    default).  The coordinator is an ordinary simulated process with the
    default CPU cost model (it is part of the measured serving path,
    unlike the bench clients), sharing a host with its site's control
    replica.  Its fence epoch comes from the control journal:
    `on_recover` re-fences itself and sweeps its own prepared handles; a
    peer whose lease expires is fenced and swept by whichever standby
    journals the `take` first."""

    RETRY = sec(1)        # lost-message resend sweep
    RESEND_AGE = ms(500)  # ...which re-sends only commands at least this old
    BACKOFF = ms(50)      # transport failures (no leader yet)
    WAIT_RETRY = ms(100)  # re-send a prepare that was told to wait
    DIE_BACKOFF = ms(20)  # base backoff before retrying a died attempt

    def __init__(self, name, sim, network, site: str, router: ShardRouter,
                 metrics: MetricsRecorder, rng, control: ControlGroup) -> None:
        super().__init__(name, sim, network, site, control, rng,
                         metrics=metrics, costs=NodeCosts())
        self.router = router
        # Fence epoch: commands stamped below the store-side fence are
        # refused.  Starts at 1; every recovery (and every takeover we
        # suffer) moves it up through the control journal.
        self.epoch = 1
        self._refence_want = 0
        self._sweeps: Dict[str, _Sweep] = {}    # recover client_id -> sweep
        self._taking: set = set()               # peers with a take in flight
        self._active: Dict[str, _TxnState] = {}     # txn_id -> state
        self._by_handle: Dict[str, _TxnState] = {}  # handle -> state
        self._queued: List[Tuple[str, TxnRequest]] = []
        self._recovering = False
        self._attempts = 0
        self._new_incarnation()
        self.commits = 0
        self.attempt_aborts = 0
        self.recoveries = 0
        self._tick_timer = self.timer("txn-tick")
        self._tick_timer.arm(self.RETRY, self._tick)

    # -- client requests -----------------------------------------------------

    def on_message(self, src: str, message) -> None:
        if isinstance(message, TxnRequest):
            self._on_request(src, message)
        elif isinstance(message, ClientReply):
            if self.handle_control_reply(message):
                return
            self._on_reply(message)

    def _on_request(self, src: str, msg: TxnRequest) -> None:
        txn_id = f"{msg.client}:{msg.txn_seq}"
        if self._recovering:
            # Don't start work until the journal has granted our new fence
            # epoch and the self-sweep has resolved our old handles: an
            # attempt stamped with the old epoch would be fenced by that
            # very sweep.  A retry of a transaction answered before the
            # crash is then a fresh attempt the home record answers.
            self._queued.append((src, msg))
            return
        active = self._active.get(txn_id)
        if active is not None:
            active.client_node = src  # duplicate request: re-register reply path
            return
        if self.obs is not None:
            self.obs_phase(f"{msg.client}:t{msg.txn_seq}", "server_recv")
        self._start_attempt(txn_id, src, list(msg.ops), msg.ts)

    def _start_attempt(self, txn_id: str, client_node: Optional[str],
                       ops: TxnOps, ts: int, retries: int = 0) -> None:
        self._attempts += 1
        # The coordinator name is part of the handle: with client-side
        # coordinator rotation, two coordinators can attempt the SAME
        # transaction concurrently, and their handles must not collide.
        handle = f"{txn_id}#{self.name}.{self.epoch}.{self._attempts}"
        participants: Dict[int, List] = {}
        for op in ops:
            participants.setdefault(self.router.shard_of(op[1]), []).append(list(op))
        state = _TxnState(txn_id, client_node, ops, ts, handle, participants,
                          retries=retries, inc=self.epoch, coord=self.name)
        self._active[txn_id] = state
        self._by_handle[handle] = state
        for shard in sorted(participants):
            self._send_prepare(state, shard)

    # -- command plumbing ----------------------------------------------------

    def _new_incarnation(self) -> None:
        """Start a dedup session of our own: every 2PC command this
        incarnation sends — its attempts' and its janitor cleanups' —
        takes the next seq of one counter under one client id.  The
        incarnation number comes from stable storage, so a restarted
        coordinator never reuses a slot its predecessor burned."""
        incarnation = self.stable.get("incarnation", 0) + 1
        self.stable["incarnation"] = incarnation
        self._client_id = f"{TXN_CLIENT_PREFIX}{self.name}.{incarnation}"
        self._seq = 0
        # shard -> seq -> attempt, in seq order: every command we still
        # await from (or may re-send to) that shard, and each decided
        # handle's home bind until its phase 2 is done.
        self._open: Dict[int, Dict[int, _TxnState]] = {}

    def _command(self, state: _TxnState, shard: int, op: OpType,
                 payload: Dict) -> Command:
        self._seq += 1
        slots = self._open.setdefault(shard, {})
        slots[self._seq] = state
        value = Payload(payload)
        # The acked low-water is one below the oldest open slot at this
        # shard: the store forgets its answers below that, and a late copy
        # of one is answered without applying.
        return Command(op=op, key=state.command_key, value=value,
                       client_id=self._client_id,
                       seq=self._seq, value_size=len(value),
                       acked_low_water=next(iter(slots)) - 1,
                       trace=state.trace)

    def _settle(self, state: _TxnState, shard: int) -> None:
        """`state` no longer awaits `shard`: close the pending command's
        slot (the home bind's stays open until `_finish_phase2`).  A late
        copy of a closed prepare is voted down by the settled handle, or
        answered by the low-water once that passes it."""
        command = state.pending.pop(shard, None)
        if command is not None and command.seq != state.bind_seq:
            del self._open[shard][command.seq]

    def _send(self, holder: Union[_TxnState, _Sweep], shard: int,
              command: Command) -> None:
        """Send (or re-send) `command` to `shard` as the step `holder` — an
        attempt or a sweep — awaits from it."""
        holder.pending[shard] = command
        holder.sent_at[shard] = self.sim.now
        self.send(self.router.server_for(shard, self.site),
                  ClientRequest(command=command, epoch=self.router.epoch))

    def _send_prepare(self, state: _TxnState, shard: int) -> None:
        if self.obs is not None:
            self.obs_phase(state.trace, "txn_prepare")
        command = self._command(state, shard, OpType.TXN_PREPARE, {
            "handle": state.handle, "txn": state.txn_id, "coord": self.name,
            "inc": state.inc, "ts": state.ts,
            "ops": state.participants[shard],
            "participants": sorted(state.participants), "home": state.home,
        })
        self._send(state, shard, command)

    def _tick(self) -> None:
        """Lost-message sweep: re-send every command unanswered for
        `RESEND_AGE`.  A younger one is still in flight — re-sending it
        would only make its leader log the same (client, seq) twice."""
        stale = self.sim.now - self.RESEND_AGE
        for holder in [*self._by_handle.values(), *self._sweeps.values()]:
            for shard, command in list(holder.pending.items()):
                if holder.sent_at[shard] <= stale:
                    self._send(holder, shard, command)
        self._tick_timer.arm(self.RETRY, self._tick)

    def _resend_later(self, state: _TxnState, shard: int, command: Command,
                      delay: int) -> None:
        def resend() -> None:
            if (self._by_handle.get(state.handle) is state
                    and state.pending.get(shard) is command):
                self._send(state, shard, command)
        self.after(delay, resend)

    # -- replies -------------------------------------------------------------

    def _on_reply(self, msg: ClientReply) -> None:
        client_id, seq = msg.request_id
        if client_id.startswith(TXN_RECOVER_PREFIX):
            self._on_recover_reply(msg)
            return
        if client_id != self._client_id:
            return  # a predecessor incarnation's
        for shard, slots in self._open.items():
            state = slots.get(seq)
            if state is not None:
                break
        else:
            return  # stale reply from an already-answered step
        command = state.pending.get(shard)
        if command is None or command.seq != seq:
            return  # a late copy of the answered home bind
        if msg.shard_map is not None:
            self.router.refresh(msg.shard_map)
        if not msg.ok:
            # No leader yet (election in progress) or a mid-reshard bounce:
            # back off and re-send the same command — dedup makes it safe.
            self._resend_later(state, shard, state.pending[shard], self.BACKOFF)
            return
        payload = payload_of(msg)
        if state.phase == "prepare":
            self._on_vote(state, shard, payload)
            return
        self._settle(state, shard)
        if state.phase == "bind":
            if "outcome" in payload:
                # The home log holds another decision for this handle (the
                # first-decision-wins tie-break): obey it.
                self._on_decision(state, payload)
            else:
                self._release_rest(state)
        elif not state.pending:  # commit / abort phase-2 acks
            self._finish_phase2(state)

    def _on_vote(self, state: _TxnState, shard: int, payload: Dict) -> None:
        vote = payload.get("vote")
        if vote == "yes":
            self._settle(state, shard)
            state.reads.update(payload.get("reads") or {})
            if state.all_prepared:
                # Every participant's yes is in its log: committed.
                self._commit(state)
        elif vote == "wait":
            # We are older than the lock holder: keep our other locks and
            # re-prepare this shard until the holder decides (wait-die).
            # A fresh sequence number each time — the retry must re-apply,
            # not be answered from the dedup cache with the same "wait".
            # The shard moves pending -> waiting, NOT out of the attempt:
            # a "yes" from the last other participant must not read an
            # empty `pending` as all-prepared and commit without us.
            self.metrics.incr("txn_waits")
            self._settle(state, shard)
            state.waiting.add(shard)

            def again() -> None:
                if (self._by_handle.get(state.handle) is state
                        and state.phase == "prepare"
                        and shard in state.waiting):
                    state.waiting.discard(shard)
                    self._send_prepare(state, shard)
            self.after(self.WAIT_RETRY, again)
        elif payload.get("winner") is not None:
            # Another attempt of this transaction committed in its home
            # shard: answer from the winner and drop our staged writes.
            self._on_decision(state, payload)
        else:
            # "no": we are younger than a holder (die), fenced, or misrouted
            # — abort this attempt everywhere and retry from scratch.
            self.attempt_aborts += 1
            self._drop(state)

    def _commit(self, state: _TxnState) -> None:
        """The transaction is committed (every participant logged a yes
        vote): answer the client, then run phase 2."""
        self._answer(state)
        self._bind(state, "commit")

    def _decision_record(self, state: _TxnState, outcome: str) -> Dict:
        # `keys` are the home keys: the record moves with their range in a
        # reshard (`KVStore.export_range`), so it meets every later attempt
        # of the transaction, whose ops name the same keys.
        return {"handle": state.handle, "txn": state.txn_id,
                "coord": state.coord,
                "participants": sorted(state.participants), "outcome": outcome,
                "reads": state.reads,
                "keys": [op[1] for op in state.participants[state.home]]}

    def _on_decision(self, state: _TxnState, decision: Dict) -> None:
        """Obey a decision the home shard returned in place of ours."""
        if decision.get("outcome") == "commit":
            # A sweep's abort lost to a commit bound first: the home log
            # already holds it, so finish the other participants.
            state.outcome = "commit"
            self._release_rest(state)
        else:
            winner = decision.get("winner")
            if winner is not None:
                # Another attempt of this transaction (through another
                # coordinator, or our own pre-crash one) already committed:
                # answer from the winner and abort OUR staged writes.
                state.winner = winner
                state.reads = winner.get("reads") or {}
                self._answer(state)
            # A sweep's abort holds (or a sibling attempt won): phase-2
            # abort, then — a client's winner-less attempt only — retry
            # the transaction as a fresh attempt.
            self._drop(state)

    def _answer(self, state: _TxnState) -> None:
        """The commit point: every participant logged a yes vote for the
        transaction — our attempt, or with `state.winner` a sibling
        attempt — so the client is answered now, before phase 2 (see the
        module docstring for why no log-ordered read can go around it); a
        crash before phase 2 finishes is repaired by the sweep
        (`_finish_sweep`), which commits every handle all of whose
        participants report it prepared.  Nothing keeps the reply: a
        retry is a fresh attempt that the home record answers."""
        if state.winner is None and state.ops:
            # Counted by the attempt's own coordinator only: a cleanup
            # cannot tell whether its (dead or fenced) owner already did.
            self.commits += 1
        if state.client_node is not None:
            client, txn_seq = state.txn_id.rsplit(":", 1)
            if self.obs is not None:
                self.obs_phase(state.trace, "reply")
            self.send(state.client_node, TxnReply(
                client=client, txn_seq=int(txn_seq), ok=True, committed=True,
                reads=dict(state.reads), server=self.name))
        # What follows (phase 2) runs after the answer, off the client's
        # path: its commands are traced as themselves, not into the
        # transaction's span, whose phases sum to the client's latency.
        state.trace = None

    def _bind(self, state: _TxnState, outcome: str) -> None:
        """Phase 2 of a decided handle: the home shard first, its
        `TXN_COMMIT` (or `TXN_ABORT`) carrying the decision record to bind
        there, then the others (`_release_rest`) — so no participant
        releases the handle before the home log knows the outcome, and a
        sweep that finds the handle gone somewhere finds the decision at
        home."""
        for shard in list(state.pending):
            self._settle(state, shard)
        state.waiting.clear()
        state.phase, state.outcome = "bind", outcome
        op = OpType.TXN_COMMIT if outcome == "commit" else OpType.TXN_ABORT
        command = self._command(state, state.home, op,
                                self._decision_record(state, outcome))
        state.bind_seq = command.seq
        self._send(state, state.home, command)

    def _release_rest(self, state: _TxnState) -> None:
        """The home log holds our decision: finish the other participants."""
        state.phase = state.outcome
        op = OpType.TXN_COMMIT if state.outcome == "commit" else OpType.TXN_ABORT
        for shard in sorted(state.participants):
            if shard != state.home:
                self._send(state, shard, self._command(
                    state, shard, op, {"handle": state.handle}))
        if not state.pending:
            self._finish_phase2(state)

    def _drop(self, state: _TxnState) -> None:
        """Phase 2 with no decision to bind — an attempt that did not get
        every yes vote, or a handle whose abort the home log already
        holds: drop the staged writes everywhere at once."""
        for shard in list(state.pending):
            self._settle(state, shard)
        state.waiting.clear()
        state.phase = "abort"
        if self.obs is not None:
            self.obs_phase(state.trace, "txn_abort")
        for shard in sorted(state.participants):
            self._send(state, shard, self._command(
                state, shard, OpType.TXN_ABORT, {"handle": state.handle}))

    def _finish_phase2(self, state: _TxnState) -> None:
        if state.bind_seq:
            # Every participant has released the handle: the home store
            # may forget the decision once the low-water passes its bind.
            del self._open[state.home][state.bind_seq]
        self._by_handle.pop(state.handle, None)
        if self._active.get(state.txn_id) is state:
            del self._active[state.txn_id]
        if state.phase == "commit" or state.winner is not None or not state.ops:
            # Answered at the commit point (`_answer`), or the recovery
            # cleanup of an orphan attempt: nothing to retry.
            return
        # Aborted attempt: retry with the ORIGINAL timestamp after a jittered
        # backoff, so the transaction's wait-die priority only ever ages.
        delay = min(self.DIE_BACKOFF * (2 ** min(state.retries, 4)), ms(500))
        delay += self.rng.randint(0, int(ms(20)))

        def retry() -> None:
            if state.txn_id not in self._active and not self._recovering:
                self._start_attempt(state.txn_id, state.client_node, state.ops,
                                    state.ts, retries=state.retries + 1)
        self.after(delay, retry)

    # -- lease / takeover ----------------------------------------------------

    def on_lease_tick(self) -> None:
        fe = self.view.fence_of(self.name)
        if fe > self.epoch and not self._recovering:
            # A janitor fenced us while we were alive (partitioned from the
            # control group, say).  Adopt the new epoch: in-flight attempts
            # stamped below it die on the store-side fence and retry
            # re-stamped; the janitor's sweep released their orphan locks.
            self.epoch = fe
        if not self._recovering or self.epoch >= self._refence_want:
            # A recovering coordinator renews from the moment its re-fence
            # is adopted: its self-sweep may outlast the lease expiry.
            self.journal_lease()
        for peer in self.control.members:
            if peer == self.name or peer in self._taking:
                continue
            if not self.lease_expired(peer):
                continue
            cur = self.view.fence_of(peer)
            if self.view.taken_by.get(peer, (0, ""))[0] >= cur:
                # The current fence already IS a takeover and the victim
                # has not journaled since: nothing new to clean.
                continue
            self._taking.add(peer)
            self.journal({"k": "take", "v": peer, "by": self.name,
                          "fe": cur + 1})

    def on_control_record(self, record: Dict) -> None:
        kind = record.get("k")
        if kind == "take":
            victim = record["v"]
            self._taking.discard(victim)
            if victim == self.name:
                if self._recovering:
                    # A take beat our pending re-fence to its epoch: ask
                    # for a higher one (adoption requires the committed
                    # fence to be at least what we asked for).
                    if self.view.fence_of(self.name) >= self._refence_want:
                        self._refence()
                else:
                    fe = self.view.fence_of(self.name)
                    self.epoch = max(self.epoch, fe)
                    if self.view.taken_by.get(self.name, (0, ""))[0] >= fe:
                        # Taken over while alive.  Journal a fence of our
                        # own above the take: until the current fence is no
                        # longer a takeover, `on_lease_tick` skips us, and
                        # our real death would never be swept.
                        self.journal({"k": "fence", "o": self.name,
                                      "fe": fe + 1})
                return
            if (record.get("by") == self.name
                    and self.view.taken_by.get(victim)
                    == (record["fe"], self.name)):
                # We won the takeover race for this victim at this epoch.
                # The stable guard keeps a control-log replay (which
                # re-fires every listener) from re-counting or re-sweeping.
                swept = self.stable.setdefault("swept", set())
                if (victim, record["fe"]) not in swept:
                    swept.add((victim, record["fe"]))
                    self.record_failover(victim)
                    self._begin_sweep(victim, record["fe"])
        elif kind == "fence":
            if (record.get("o") == self.name and self._recovering
                    and self.view.fence_of(self.name) >= self._refence_want):
                self._adopt_epoch(self.view.fence_of(self.name))

    # -- crash / recovery ----------------------------------------------------

    def on_crash(self) -> None:
        # Volatile state is lost; the votes and decisions in the shard logs
        # are not (the recovery sweep resolves our prepared handles, and
        # the home records answer any retry of an answered transaction).
        super().on_crash()
        self._active.clear()
        self._by_handle.clear()
        self._queued.clear()
        self._sweeps.clear()
        self._taking.clear()

    def on_recover(self) -> None:
        super().on_recover()
        self.recoveries += 1
        self._recovering = True
        self._new_incarnation()
        self._tick_timer.arm(self.RETRY, self._tick)
        self._refence()

    def _refence(self) -> None:
        """Ask the control journal for a fence epoch above everything ever
        granted to (or taken from) this coordinator.  Adoption happens in
        `on_control_record` when the committed fence reaches the ask; a
        concurrent janitor take to the same epoch just pushes the ask up."""
        self._refence_want = max(self.view.fence_of(self.name), self.epoch) + 1
        self.journal({"k": "fence", "o": self.name, "fe": self._refence_want})

    def _adopt_epoch(self, fe: int) -> None:
        # Stable-guarded: a control-log replay re-fires the fence record,
        # and must not restart an already-finished self-sweep.
        adopted = self.stable.setdefault("adopted", set())
        if fe in adopted:
            return
        adopted.add(fe)
        self.epoch = fe
        self._begin_sweep(self.name, fe)

    def _cleanup(self, sweep: _Sweep, handle: str,
                 reports: Dict[int, Dict]) -> Optional[_TxnState]:
        """A state that finishes `handle` for the sweep: no client, no ops,
        logged under the victim's name, each participant's ops as its
        prepare report gives them (the decision record names the home
        keys).  Its commands are ours, in our own dedup session, so none
        can meet a slot the victim burned.  None if an earlier sweep's
        cleanup of the handle is still running here: that one finishes
        it, as this one would (the first decision bound at home holds)."""
        if handle in self._by_handle:
            return None
        meta = next(iter(reports.values()))
        participants = {int(s): list(reports[s]["ops"]) if s in reports
                        else [] for s in meta["participants"]}
        state = _TxnState(meta["txn"], None, [], 0, handle, participants,
                          coord=sweep.victim)
        self._by_handle[handle] = state
        return state

    def _begin_sweep(self, victim: str, fe: int) -> None:
        """Fan a fenced `TXN_RECOVER` out to every shard for `victim`.
        Store-side this raises the victim's fence to `fe` and reports its
        prepared transactions; `_finish_sweep` then resolves them."""
        client_id = f"{TXN_RECOVER_PREFIX}{victim}:{fe}"
        if client_id in self._sweeps:
            return
        sweep = _Sweep(victim, fe)
        self._sweeps[client_id] = sweep
        value = Payload({"coord": victim, "inc": fe})
        for shard in range(self.router.num_shards):
            command = Command(
                op=OpType.TXN_RECOVER, key=f"txnrec:{victim}", value=value,
                client_id=client_id, seq=shard + 1, value_size=len(value))
            self._send(sweep, shard, command)

    def _on_recover_reply(self, msg: ClientReply) -> None:
        client_id, _seq = msg.request_id
        sweep = self._sweeps.get(client_id)
        if sweep is None:
            return
        shard = next((s for s, c in sweep.pending.items()
                      if c.request_id == msg.request_id), None)
        if shard is None:
            return
        if not msg.ok:
            self._send(sweep, shard, sweep.pending[shard])
            return
        payload = payload_of(msg)
        del sweep.pending[shard]
        for meta in payload.get("prepared", []):
            sweep.prepared.setdefault(meta["handle"], {})[shard] = meta
        if not sweep.pending:
            del self._sweeps[client_id]
            self._finish_sweep(sweep)

    def _finish_sweep(self, sweep: _Sweep) -> None:
        """Resolve the victim's prepared handles (the victim may be
        ourselves).  A handle is committed iff every one of its
        participants reports it prepared — the stores report only handles
        stamped below the sweep's fence, whose reports the fence makes
        final, so that is exactly "every participant logged a yes vote" —
        and aborted otherwise, the abort bound in the home shard first
        (`_bind`).  A handle whose commit the home log already holds (the
        victim died between the home bind and the other installs) no
        longer reports there, so it takes the abort path, and the home
        answers with the commit bound first (`_on_decision`)."""
        for handle in sorted(sweep.prepared):
            reports = sweep.prepared[handle]
            state = self._cleanup(sweep, handle, reports)
            if state is None:
                continue
            if set(state.participants) <= set(reports):
                for report in reports.values():
                    state.reads.update(report.get("reads") or {})
                self._commit(state)
            else:
                self._bind(state, "abort")
        if sweep.victim == self.name:
            self._recovering = False
            queued, self._queued = self._queued, []
            for src, msg in queued:
                self._on_request(src, msg)


# ---------------------------------------------------------------------------
# The txn experiment: committed-transaction throughput vs shard count and
# cross-shard ratio, with every ack accounted for
# ---------------------------------------------------------------------------


@dataclass
class TxnSpec(ShardedSpec):
    """A sharded trial whose load is multi-key transactions.

    Every client iteration issues one `txn_size`-operation transaction;
    with probability `cross_shard_ratio` its keys are drawn from two
    different shards (2PC through the coordinator), otherwise from one
    shard (the atomic single-command fast path)."""

    txn_size: int = 2
    cross_shard_ratio: float = 0.1


@dataclass(kw_only=True)
class TxnResult(Accounting):
    """The run's `Accounting` (in transactions: `completed` counts the
    transactions committed inside the window) plus the 2PC measurements."""

    spec: TxnSpec
    txn_throughput: float     # committed transactions per second
    ops_throughput: float     # txn_throughput * txn_size (op-comparable)
    committed_total: int
    latency_ms: Dict[str, float]
    single_shard: int
    cross_shard: int
    commits_2pc: int
    attempt_aborts: int
    waits: int
    recoveries: int
    locks_left: int
    leaders: Dict[int, str]
    events_processed: int
    failovers: int = 0

    @property
    def prefix_violations(self) -> Dict[int, List[str]]:
        """The per-shard verdicts under the name the txn figures use: a
        transactional run checks log-prefix agreement per group, and
        strict serializability across them."""
        return self.violations


#: (records, ring start of every shard) -> the workload's key ids bucketed
#: by owning shard.  A pure function of that key, so the 100,000-key pass
#: runs once per process instead of once per `TxnCluster`.
_KEY_POOLS: Dict[Tuple[int, Tuple[int, ...]], Dict[int, array]] = {}


def key_pools(partitioner, records: int) -> Dict[int, array]:
    """Workload key ids ``0 .. records-1`` grouped by owning shard, each
    pool in id order (clients index pools with RNG draws, so the order is
    part of a run's identity; `WorkloadConfig.key_name` turns an entry
    into its key); shards owning no key are left out.  The pools are
    ``array('I')``s of ids, not key strings — 4 bytes a key instead of
    ~60 — and every cluster with the same map shares them, so nobody
    may mutate one."""
    starts = tuple(partitioner.range_of(shard).start
                   for shard in range(partitioner.num_shards))
    pools = _KEY_POOLS.get((records, starts))
    if pools is None:
        buckets = [array("I") for _ in starts]
        shard_of_point = partitioner.shard_of_point
        key_name = WorkloadConfig.key_name
        for key_id in range(records):
            buckets[shard_of_point(ring_point(key_name(key_id)))].append(
                key_id)
        pools = _KEY_POOLS[(records, starts)] = {
            shard: ids for shard, ids in enumerate(buckets) if ids}
    return dict(pools)


class TxnWorkloadClient(ShardRoutedClient):
    """A closed-loop client whose every iteration is one transaction.

    With probability `cross_shard_ratio` the keys are drawn from two
    different shards (2PC through the coordinator); otherwise from one
    (the single-command fast path).  Per-shard key pools make single-shard
    key selection O(1) instead of rejection sampling the hash ring."""

    def __init__(self, name, sim, network, site, router, workload, sites,
                 rng, metrics, pools: Dict[int, Sequence[int]], txn_size: int,
                 cross_shard_ratio: float, coordinator: str,
                 stop_at: Optional[int] = None, **session_kwargs) -> None:
        self._pools = pools
        self._pool_shards = sorted(pools)
        self.txn_size = max(1, txn_size)
        self.cross_shard_ratio = cross_shard_ratio
        self._value_tag = 0
        super().__init__(name, sim, network, site, router, workload, sites,
                         rng, metrics, stop_at=stop_at, coordinator=coordinator,
                         **session_kwargs)

    def _issue_one(self) -> None:
        self.transact(self._build_ops())

    def _build_ops(self) -> List:
        self._value_tag += 1
        rng = self.rng
        cross = (len(self._pool_shards) > 1 and self.txn_size > 1
                 and rng.random() < self.cross_shard_ratio)
        if cross:
            first, second = rng.sample(self._pool_shards, 2)
            shards = [first] + [second] * (self.txn_size - 1)
        else:
            # Weight the shard choice by pool size so single-shard load
            # matches the uniform-key draw of plain sharded clients.
            key = WorkloadConfig.key_name(rng.randrange(self.workload.records))
            shard = self.router.shard_of(key)
            if shard not in self._pools:
                shard = self._pool_shards[0]
            shards = [shard] * self.txn_size
        ops: List = []
        used = set()
        for i, shard in enumerate(shards):
            pool = self._pools[shard]
            key_id = pool[rng.randrange(len(pool))]
            tries = 0
            while key_id in used and tries < 8:
                key_id = pool[rng.randrange(len(pool))]
                tries += 1
            if key_id in used:
                continue  # pool smaller than txn_size: drop the extra op
            used.add(key_id)
            key = WorkloadConfig.key_name(key_id)
            if rng.random() < self.workload.read_fraction:
                ops.append(("get", key, None))
            else:
                ops.append(("put", key, f"{self.name}:{self._value_tag}:{i}"))
        return ops


class TxnCluster(ShardedCluster):
    """A sharded deployment serving transactional load: one coordinator per
    site plus closed-loop clients issuing `txn_size`-op transactions."""

    spec: TxnSpec

    def __init__(self, spec: TxnSpec) -> None:
        if spec.offered_load is not None:
            raise ValueError("transactional fleets are closed-loop: "
                             "offered_load is not supported for TxnSpec")
        if spec.protocol in LEASE_READ_PROTOCOLS:
            # A lease-local GET ignores the lock table, so between a
            # transaction's answer and its `TXN_COMMIT` it would read the
            # value the answered write replaced (DESIGN.md §6).
            raise ValueError(f"{spec.protocol} serves lease-local reads, "
                             f"which bypass the 2PC lock table: not "
                             f"supported for TxnSpec")
        super().__init__(spec)

    def _build_fleet(self) -> List:
        spec = self.spec
        sites = self.topology.sites
        # The coordinators' own consensus group: one control replica per
        # site, sharing a host with that site's coordinator.  The hosts
        # join the cluster's host table so machine-level nemesis faults
        # (host_kill) can land on coordinators too.
        self.txn_control = ControlGroup(
            "txnctl", self.sim, self.network, sites, spec.protocol,
            members=[f"txnco_{site}" for site in sites])
        for host in self.txn_control.hosts.values():
            self.hosts[host.name] = host
        self.coordinators = [
            TxnCoordinator(f"txnco_{site}", self.sim, self.network, site,
                           self.router, self.metrics,
                           self.rng.stream(f"txnco:{site}"),
                           control=self.txn_control)
            for site in sites
        ]
        self.txn_events: List[TxnEvent] = []
        # Per-shard key pools so single-shard transactions can draw all
        # their keys from one group without rejection sampling.
        self._pools = key_pools(self.partitioner, spec.workload.records)
        stop_at = sec(spec.duration_s)
        clients = spec.client_plan().spawn(
            sites, self.rng,
            lambda name, site, rng, **knobs: TxnWorkloadClient(
                name, self.sim, self.network, site, self.router,
                spec.workload, sites, rng, self.metrics, pools=self._pools,
                txn_size=spec.txn_size,
                cross_shard_ratio=spec.cross_shard_ratio,
                coordinator=f"txnco_{site}",
                coordinators=[f"txnco_{s}" for s in
                              [site] + [s for s in sites if s != site]],
                stop_at=stop_at, **knobs))
        for client in clients:
            client.on_txn_complete_hooks.append(self.record_txn_event)
        return clients

    def record_txn_event(self, client, txn_id, ops, reads, start,
                         end) -> None:
        """`on_txn_complete_hooks` hook: keep an acknowledged transaction
        for the strict-serializability check."""
        self.txn_events.append(TxnEvent(
            txn_id=txn_id, start=start, end=end,
            ops=tuple((op, key, value if op == "put" else reads.get(key))
                      for op, key, value in ops)))

    # -- safety accounting ---------------------------------------------------

    def write_orders(self) -> Dict[str, List[str]]:
        """Per-key install order, taken from the most advanced replica of
        the key's owner group (replicas are prefix-consistent, so the
        longest log is the most complete)."""
        orders: Dict[str, List[str]] = {}
        shard_of = self.partitioner.shard_of
        for shard, replicas in self.groups.items():
            for replica in replicas.values():
                # One store's orders at a time, each derived fresh from its
                # install record: the winners are kept, nothing aliased.
                for key, order in replica.store.install_orders().items():
                    if (len(order) > len(orders.get(key, ()))
                            and shard_of(key) == shard):
                        orders[key] = order
        return orders

    def _writes(self) -> Tuple[Dict[str, set], Dict[str, int]]:
        """Per key: the distinct acknowledged transactional writes and the
        ones still in flight at the end of the run."""
        acked: Dict[str, set] = {}
        for event in self.txn_events:
            for op, key, value in event.ops:
                if op == "put":
                    acked.setdefault(key, set()).add((event.txn_id, value))
        in_flight: Dict[str, int] = {}
        for client in self.clients:
            for op, key, _value in client.pending_ops():
                if op == "put":
                    in_flight[key] = in_flight.get(key, 0) + 1
        return acked, in_flight

    def accounting(self) -> Accounting:
        """The same record in transactions: the ack identities count
        transactions, each group is checked for prefix agreement, and the
        committed history as a whole for strict serializability."""
        clients = self.clients
        return Accounting.of(
            self,
            issued=sum(c.txns_issued for c in clients),
            acked=sum(c.txns_committed for c in clients),
            outstanding=sum(c.txns_outstanding for c in clients),
            duplicate_executions=self.duplicate_execution_count(),
            violations={shard: checker.check_prefix_agreement()
                        for shard, checker in sorted(self.checkers.items())},
            serializability_violations=check_strict_serializability(
                self.txn_events, self.write_orders()))

    def locks_left(self) -> int:
        """Prepared locks still held when the run ends (bounded by the
        in-flight transactions; an unbounded residue means orphan locks)."""
        return max((len(replica.store.locked_keys())
                    for replicas in self.groups.values()
                    for replica in replicas.values()), default=0)

    # -- running -------------------------------------------------------------

    def run(self) -> TxnResult:  # type: ignore[override]
        spec = self.spec
        self.sim.run(until=sec(spec.duration_s))
        window_start, window_end = spec.window()
        txn_throughput = self.metrics.throughput_ops(window_start, window_end)
        return TxnResult(
            **vars(self.accounting()),
            spec=spec,
            txn_throughput=txn_throughput,
            ops_throughput=txn_throughput * spec.txn_size,
            committed_total=sum(c.txns_committed for c in self.clients),
            latency_ms=self.metrics.latency_summary_ms(window_start, window_end),
            single_shard=sum(c.single_shard_txns for c in self.clients),
            cross_shard=sum(c.cross_shard_txns for c in self.clients),
            commits_2pc=sum(c.commits for c in self.coordinators),
            attempt_aborts=sum(c.attempt_aborts for c in self.coordinators),
            waits=self.metrics.counters.get("txn_waits", 0),
            recoveries=sum(c.recoveries for c in self.coordinators),
            locks_left=self.locks_left(),
            leaders=dict(self.leaders),
            events_processed=self.sim.events_processed,
            failovers=sum(c.failovers for c in self.coordinators),
        )


def run_txn_experiment(spec: TxnSpec) -> TxnResult:
    return TxnCluster(spec).run()
