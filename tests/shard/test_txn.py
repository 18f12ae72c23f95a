"""Cross-shard transactions: the 2PC layer end to end, including the fault
windows that motivate prepare-through-the-log and the votes as the commit
point."""

from collections import Counter

import pytest

from benchmarks.ledger.workloads import BY_NAME
from repro.kvstore.checker import check_strict_serializability
from repro.protocols.messages import TxnReply, TxnRequest
from repro.protocols.registry import LEASE_READ_PROTOCOLS
from repro.protocols.types import OpType, payload_of
from repro.shard.control import ReplicatedCoordinator
from repro.shard.router import ShardRoutedClient
from repro.shard.txn import TxnCluster, TxnSpec, run_txn_experiment
from repro.sim.units import ms, sec
from repro.workload.ycsb import WorkloadConfig
from tests.shard.nemesis import txn_nemesis
from tests.shard.test_txn_reshard import lost_installs

WORKLOAD = WorkloadConfig(read_fraction=0.5, conflict_rate=0.0, records=500,
                          value_size=64)


def txn_spec(**overrides) -> TxnSpec:
    defaults = dict(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=2, workload=WORKLOAD,
        duration_s=5.0, warmup_s=1.0, cooldown_s=0.5, seed=3,
        check_history=True, txn_size=2, cross_shard_ratio=0.5,
    )
    defaults.update(overrides)
    return TxnSpec(**defaults)


def find_key(cluster, shard: int, start: int = 0) -> str:
    for key_id in range(start, start + 10_000):
        key = f"k{key_id}"
        if cluster.partitioner.shard_of(key) == shard:
            return key
    raise AssertionError(f"no key for shard {shard}")


def manual_client(cluster, name="c_manual", site="oregon",
                  ring=False) -> ShardRoutedClient:
    """A client that only transacts when told to (stop_at=0 suppresses the
    closed-loop generator).  Its acknowledged transactions join the
    cluster's history, so `lost_installs` and the serializability check
    see them.  `ring` gives it every site's coordinator, its own first,
    as the closed-loop clients have."""
    sites = cluster.topology.sites
    coordinators = ([f"txnco_{s}" for s in
                     [site] + [s for s in sites if s != site]]
                    if ring else None)
    client = ShardRoutedClient(
        name, cluster.sim, cluster.network, site, cluster.router,
        WORKLOAD, sites, cluster.rng.stream(f"client:{name}"),
        cluster.metrics, stop_at=0, coordinator=f"txnco_{site}",
        coordinators=coordinators)
    client.on_txn_complete_hooks.append(cluster.record_txn_event)
    return client


def owner_version(cluster, key: str) -> int:
    shard = cluster.partitioner.shard_of(key)
    return max(replica.store.version(key)
               for replica in cluster.groups[shard].values())


# -- the closed-loop experiment, fault-free -----------------------------------


def test_txn_experiment_commits_and_stays_safe():
    result = run_txn_experiment(txn_spec())
    assert result.committed_total > 50
    assert result.single_shard > 0 and result.cross_shard > 0
    assert result.commits_2pc > 0
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.strict_serializable
    assert all(not v for v in result.prefix_violations.values())
    assert result.safe


def test_txn_cluster_rejects_offered_load_at_construction():
    with pytest.raises(ValueError, match="closed-loop"):
        TxnCluster(TxnSpec(offered_load=100.0, num_shards=2,
                           clients_per_region=1, duration_s=1.0))


@pytest.mark.parametrize("protocol", sorted(LEASE_READ_PROTOCOLS))
def test_txn_cluster_refuses_lease_read_protocols_at_construction(protocol):
    """A lease-local GET does not consult the 2PC lock table, so between a
    transaction's answer and its `TXN_COMMIT` it would read the value the
    answered write replaced: that cell is refused, not run."""
    assert LEASE_READ_PROTOCOLS == {"raftstar-pql", "paxos-pql",
                                    "leaderlease"}
    with pytest.raises(ValueError, match="lease-local reads"):
        TxnCluster(txn_spec(protocol=protocol))


def test_zero_cross_ratio_never_touches_the_coordinator():
    result = run_txn_experiment(txn_spec(cross_shard_ratio=0.0))
    assert result.cross_shard == 0
    assert result.commits_2pc == 0
    assert result.committed_total > 50
    assert result.safe


def test_txn_layer_is_protocol_agnostic():
    """The same 2PC layer over MultiPaxos groups — the paper's porting
    claim at the composition layer."""
    result = run_txn_experiment(txn_spec(protocol="multipaxos", duration_s=4.0))
    assert result.committed_total > 30
    assert result.cross_shard > 0
    assert result.safe


# -- transact(): the client API ----------------------------------------------


def test_transact_single_shard_is_one_atomic_command():
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key_a = find_key(cluster, 0)
    key_b = find_key(cluster, 0, start=int(key_a[1:]) + 1)
    client = manual_client(cluster)
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key_a, "va"), ("put", key_b, "vb")])
    cluster.sim.run(until=sec(2.0))
    assert client.txns_committed == 1
    assert client.single_shard_txns == 1 and client.cross_shard_txns == 0
    leader = cluster.leader_replica(0)
    assert leader.store.read_local(key_a) == "va"
    assert leader.store.read_local(key_b) == "vb"
    # no 2PC ran
    assert all(c.commits == 0 for c in cluster.coordinators)


def test_transact_cross_shard_commits_atomically_with_reads():
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    observed = []
    client.on_txn_complete_hooks.append(
        lambda c, txn_id, ops, reads, start, end: observed.append(reads))
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    cluster.sim.schedule_at(sec(2.0), client.transact,
                            [("get", key0, None), ("get", key1, None)])
    cluster.sim.run(until=sec(4.0))
    assert client.txns_committed == 2
    assert client.cross_shard_txns == 2
    # The read transaction saw BOTH writes (atomicity across groups).
    assert observed[1] == {key0: "v0", key1: "v1"}
    # Writes landed on their owner groups and locks were released.
    assert owner_version(cluster, key0) == 1
    assert owner_version(cluster, key1) == 1
    assert cluster.locks_left() == 0


def test_transact_cross_shard_without_coordinator_raises():
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    client.coordinator = None
    with pytest.raises(RuntimeError):
        client.transact([("put", key0, "x"), ("put", key1, "y")])


def test_conflicting_cross_txns_all_commit_exactly_once():
    """Two clients race transactions over the SAME two keys in opposite
    orders — the classic distributed deadlock.  Wait-die must let both
    commit (in some order) with exactly one installed write per ack."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    alice = manual_client(cluster, "c_alice", "oregon")
    bob = manual_client(cluster, "c_bob", "seoul")
    cluster.sim.schedule(ms(10), alice.transact,
                         [("put", key0, "a0"), ("put", key1, "a1")])
    cluster.sim.schedule(ms(10), bob.transact,
                         [("put", key1, "b1"), ("put", key0, "b0")])
    cluster.sim.run(until=sec(8.0))
    assert alice.txns_committed == 1
    assert bob.txns_committed == 1
    # Exactly two installs per key (one per committed txn), zero residue.
    assert owner_version(cluster, key0) == 2
    assert owner_version(cluster, key1) == 2
    assert cluster.locks_left() == 0
    # Atomic orders only: both keys end on the same transaction's values.
    final0 = cluster.leader_replica(0).store.read_local(key0)
    final1 = cluster.leader_replica(1).store.read_local(key1)
    assert (final0, final1) in {("a0", "a1"), ("b0", "b1")}


def test_plain_put_waits_out_a_prepared_lock():
    """A non-transactional PUT on a key locked by a prepared transaction is
    rejected (conflict) and succeeds via the ordinary backoff retry once
    the lock clears — without consuming its dedup slot."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    txn_client = manual_client(cluster, "c_txn", "oregon")
    put_client = manual_client(cluster, "c_put", "ohio")
    cluster.sim.schedule(ms(10), txn_client.transact,
                         [("put", key0, "t0"), ("put", key1, "t1")])
    # Fire the plain PUT while the prepare lock is likely held (the 2PC
    # needs a WAN round trip per phase, so ~350ms in is mid-transaction).
    cluster.sim.schedule_at(ms(350), put_client.transact,
                            [("put", key0, "p0")])
    cluster.sim.run(until=sec(6.0))
    assert txn_client.txns_committed == 1
    assert put_client.txns_committed == 1
    assert owner_version(cluster, key0) == 2
    assert cluster.locks_left() == 0


def test_wait_vote_does_not_unblock_commit_decision():
    """Regression: a participant that voted 'wait' is between commands (no
    entry in `pending`), but the transaction must NOT be treated as
    all-prepared when the other participant's 'yes' arrives — that would
    log a commit decision and commit non-atomically, dropping the waiting
    shard's writes."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    coordinator = cluster.coordinators[0]
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    coordinator._start_attempt(
        "c_x:1", None, [("put", key0, "v0"), ("put", key1, "v1")], ts=100)
    state = coordinator._active["c_x:1"]
    assert set(state.pending) == {0, 1}
    # shard 1 says wait (an older txn blocked on a younger holder)...
    coordinator._on_vote(state, 1, {"vote": "wait"})
    assert 1 in state.waiting and 1 not in state.pending
    # ...then shard 0's yes lands inside the re-prepare window
    coordinator._on_vote(state, 0, {"vote": "yes", "reads": {}})
    # the txn must still be preparing, with no decision logged
    assert state.phase == "prepare"
    assert not state.all_prepared
    assert coordinator.commits == 0
    # once the re-prepare fires and votes yes, the decision may proceed
    cluster.sim.run(until=sec(1.0))
    assert state.phase != "prepare" or state.waiting or state.pending


# -- the commit point ----------------------------------------------------------


def test_client_is_answered_at_the_commit_point_before_phase2_applies():
    """The reply leaves once every participant's yes vote is logged: at
    that moment no participant has applied `TXN_COMMIT`, and both writes
    are still staged under their locks."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    commits_applied = []

    def on_apply(replica, index, command):
        if command.op is OpType.TXN_COMMIT:
            commits_applied.append(replica)
    for replicas in cluster.groups.values():
        for replica in replicas.values():
            replica.on_apply_hooks.append(on_apply)
    at_answer = []
    client.on_txn_complete_hooks.append(
        lambda c, txn_id, ops, reads, start, end: at_answer.append(
            (list(commits_applied),
             [cluster.leader_replica(shard).store.locked_keys()
              for shard in (0, 1)])))
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    cluster.sim.run(until=sec(3.0))

    [(applied, (locks0, locks1))] = at_answer
    assert applied == []
    assert key0 in locks0 and key1 in locks1
    # ...and phase 2 then finished in the background.
    assert owner_version(cluster, key0) == 1
    assert owner_version(cluster, key1) == 1
    assert cluster.locks_left() == 0


def test_coordinator_dead_between_answer_and_phase2_is_finished_by_janitor():
    """The coordinator answers and dies before sending any `TXN_COMMIT`.
    A peer's janitor sweep finds the handle prepared at every participant
    — committed — and pushes it through phase 2: the writes install once
    and the locks clear."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    coordinator = cluster.coordinators[0]  # txnco_oregon, the client's
    bind = coordinator._bind

    def die_before_commit(state, outcome):
        if outcome == "commit":
            coordinator.crash()
        else:
            bind(state, outcome)
    coordinator._bind = die_before_commit
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    cluster.sim.run(until=sec(6.0))

    assert client.txns_committed == 1
    assert [r.server for r in cluster.metrics.records] == ["txnco_oregon"]
    assert not coordinator.alive
    assert sum(c.failovers for c in cluster.coordinators) >= 1
    assert owner_version(cluster, key0) == 1
    assert owner_version(cluster, key1) == 1
    assert cluster.locks_left() == 0
    assert cluster.accounting().duplicate_executions == 0


def test_a_reader_that_starts_at_the_answer_sees_the_write():
    """Readers started the instant the writer is answered — while its
    keys are still locked — must see its writes: the single-shard `TXN`
    conflicts and retries, the 2PC read waits or dies, until phase 2
    installs them."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    writer = manual_client(cluster, "c_writer", "oregon")
    single = manual_client(cluster, "c_single", "seoul")
    cross = manual_client(cluster, "c_cross", "ireland")
    seen = {}

    def answered(c, txn_id, ops, reads, start, end):
        seen["locked"] = key0 in cluster.leader_replica(0).store.locked_keys()
        cluster.sim.schedule(0, single.transact, [("get", key0, None)])
        cluster.sim.schedule(0, cross.transact,
                             [("get", key0, None), ("get", key1, None)])
    writer.on_txn_complete_hooks.append(answered)
    for reader in (single, cross):
        reader.on_txn_complete_hooks.append(
            lambda c, txn_id, ops, reads, start, end: seen.setdefault(
                c.name, reads))
    cluster.sim.schedule(ms(10), writer.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    cluster.sim.run(until=sec(6.0))

    assert seen["locked"]
    assert seen["c_single"] == {key0: "v0"}
    assert seen["c_cross"] == {key0: "v0", key1: "v1"}


def test_hot_keys_cannot_read_around_an_early_answer():
    """Hot-key contention with mostly 2PC load: transactions keep starting
    on keys whose writer is already answered but not yet installed, and
    the acknowledged history stays strictly serializable (its real-time
    edges are exactly the early answers)."""
    cluster = TxnCluster(txn_spec(
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                records=8, value_size=64),
        cross_shard_ratio=0.8))
    answered = set()
    overlaps = []
    for client in cluster.clients:
        client.on_txn_complete_hooks.append(
            lambda c, txn_id, ops, reads, start, end: answered.add(txn_id))

        def watched(ops, transact=client.transact):
            for _, key, _ in ops:
                store = cluster.leader_replica(
                    cluster.partitioner.shard_of(key)).store
                holder = store.locked_keys().get(key)
                if holder is not None and holder.split("#")[0] in answered:
                    overlaps.append(key)
            transact(ops)
        client.transact = watched
    result = cluster.run()

    assert len(overlaps) > 10
    assert result.waits > 0 and result.attempt_aborts > 0
    assert result.strict_serializable
    assert result.safe
    assert lost_installs(cluster) == []


def test_tick_resends_only_commands_unanswered_for_resend_age():
    """The 1 s lost-message sweep skips a command sent moments ago (its
    leader would log the same (client, seq) twice) and re-sends one that
    was lost at the next sweep after it is `RESEND_AGE` old."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    coordinator = cluster.coordinators[0]
    prepares = []
    send = coordinator.send

    def lossy_send(dst, message):
        command = getattr(message, "command", None)
        if command is not None and command.op is OpType.TXN_PREPARE:
            prepares.append((dst, cluster.sim.now))
            if dst.startswith("g1_") and len(prepares) <= 2:
                return  # the first prepare to shard 1 is lost
        send(dst, message)
    coordinator.send = lossy_send
    # Sent 10 ms before the sweep at t = RETRY: fresh when it runs.
    start = coordinator.RETRY - ms(10)
    cluster.sim.schedule_at(start - ms(5), client.transact,
                            [("put", key0, "v0"), ("put", key1, "v1")])
    cluster.sim.run(until=sec(6.0))

    to0 = [at for dst, at in prepares if dst.startswith("g0_")]
    to1 = [at for dst, at in prepares if dst.startswith("g1_")]
    assert len(to0) == 1                      # answered: never re-sent
    assert len(to1) == 2                      # lost: re-sent once
    assert to1[1] == 2 * coordinator.RETRY    # skipped fresh at t = RETRY
    assert client.txns_committed == 1
    assert owner_version(cluster, key0) == 1
    assert cluster.locks_left() == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_control_journal_carries_liveness_only_and_stays_bounded(seed):
    """The coordinators' control log carries liveness facts only — no
    record per commit — so its length follows the run's duration, not its
    commit count: each member renews once per lease tick, and on this
    fault-free run nobody takes anybody over."""
    cluster = TxnCluster(txn_spec(seed=seed))
    result = cluster.run()
    assert result.commits_2pc > 100
    assert result.failovers == 0
    log = max((replica.log for replica in cluster.txn_control.replicas.values()),
              key=len)
    records = [payload_of(entry.command) for entry in log
               if entry.command.op is not OpType.NOP]
    assert {record["k"] for record in records} <= {"lease", "fence", "take"}
    leases = Counter(record["o"] for record in records
                     if record["k"] == "lease")
    ticks = sec(cluster.spec.duration_s) // ReplicatedCoordinator.LEASE_INTERVAL
    assert set(leases) == set(cluster.txn_control.members)
    assert max(leases.values()) <= ticks + 2


# -- the votes are the commit point: crash points and sibling attempts -------


def replies_seen(client):
    """Every `TxnReply` the client receives, stale duplicates included."""
    seen = []
    on_message = client.on_message

    def counted(src, message):
        if isinstance(message, TxnReply):
            seen.append(message)
        on_message(src, message)
    client.on_message = counted
    return seen


def drop_first_reply(client):
    """Lose the first `TxnReply` that reaches `client`; returns the list
    that keeps it."""
    dropped = []
    on_message = client.on_message

    def dropping(src, message):
        if isinstance(message, TxnReply) and not dropped:
            dropped.append(message)
            return
        on_message(src, message)
    client.on_message = dropping
    return dropped


def assert_one_execution(cluster, client, replies, keys):
    """Strictly serializable, one answer the client acted on (any other
    reply it got carried the same reads), every written key installed
    exactly once, and every acknowledged write installed and unlocked
    after the drain."""
    assert client.txns_committed == 1 and len(cluster.txn_events) == 1
    assert check_strict_serializability(cluster.txn_events,
                                        cluster.write_orders()) == []
    assert replies and all(r.reads == replies[0].reads for r in replies)
    assert lost_installs(cluster) == []
    for key in keys:
        assert owner_version(cluster, key) == 1
    assert cluster.locks_left() == 0
    assert cluster.accounting().duplicate_executions == 0


def crash_once(coordinator, name, when):
    """Replace `coordinator.<name>` by a hook that crashes the coordinator
    (instead of running the step) the first time `when(*args)` holds,
    then puts the original back."""
    original = getattr(coordinator, name)

    def hooked(*args, **kwargs):
        if when(*args, **kwargs):
            setattr(coordinator, name, original)
            coordinator.crash()
        else:
            original(*args, **kwargs)
    setattr(coordinator, name, hooked)


def crash_after_first_yes(coordinator):
    # The second participant's vote arrives to a dead coordinator.
    crash_once(coordinator, "_on_vote",
               lambda state, shard, payload: (payload.get("vote") == "yes"
                                              and len(state.pending) == 2))


def crash_after_last_yes(coordinator):
    crash_once(coordinator, "_commit", lambda state: True)


def crash_after_answer(coordinator):
    crash_once(coordinator, "_bind", lambda state, outcome: outcome == "commit")


def crash_after_home_bind(coordinator):
    crash_once(coordinator, "_release_rest", lambda state: True)


@pytest.mark.parametrize("crash", [
    crash_after_first_yes, crash_after_last_yes, crash_after_answer,
    crash_after_home_bind,
], ids=["after-first-yes", "after-last-yes", "after-answer",
        "after-home-bind"])
def test_coordinator_crash_at_each_point_of_the_commit(crash):
    """Crash the client's coordinator (and restart it 1 s later) at each
    step from the first yes vote to phase 2: after the first yes, after
    the last yes but before the answer, after the answer but before the
    home shard binds the decision, and after the bind but before the
    other participant installs.  Whoever resolves the handle — a peer's
    janitor or the coordinator's own recovery sweep — the transaction
    executes once."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=12.0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    replies = replies_seen(client)
    coordinator = cluster.coordinators[0]  # txnco_oregon, the client's
    crash(coordinator)
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])

    def restart():
        if not coordinator.alive:
            coordinator.recover()
    cluster.sim.schedule_at(sec(1.5), restart)
    cluster.sim.run(until=sec(12.0))

    assert coordinator.alive and coordinator.recoveries == 1
    assert_one_execution(cluster, client, replies, [key0, key1])


def test_a_ring_client_leaves_a_dead_coordinator_after_one_retry_timeout():
    """The client's coordinator dies as the last yes vote arrives and
    stays dead.  A peer's janitor finishes the transaction; the client's
    first resend, one retry timeout (5 s, jittered by 10 %) after it
    submitted, goes to the next coordinator in its ring, which is
    answered from the home shard's record."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=12.0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster, ring=True)
    replies = replies_seen(client)
    answered = []
    client.on_txn_complete_hooks.append(
        lambda *args: answered.append(cluster.sim.now))
    coordinator = cluster.coordinators[0]  # txnco_oregon, the client's
    crash_after_last_yes(coordinator)
    submitted = ms(10)
    cluster.sim.schedule(submitted, client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    cluster.sim.run(until=sec(12.0))

    assert not coordinator.alive
    assert replies[0].server != coordinator.name
    assert answered and answered[0] - submitted <= sec(6)
    assert_one_execution(cluster, client, replies, [key0, key1])


def test_retry_to_the_recovered_coordinator_is_answered_from_the_winner():
    """The coordinator answers, the reply is lost, and the coordinator
    crashes before phase 2.  It keeps no reply across the crash: the
    client's retry reaches it after recovery as a fresh attempt, and the
    home shard's commit record answers that attempt — one install, and
    the first attempt's reads although the read key was overwritten in
    between."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=14.0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    writer = manual_client(cluster, "c_writer", "ohio")
    client = manual_client(cluster)
    replies = replies_seen(client)
    dropped = drop_first_reply(client)
    coordinator = cluster.coordinators[0]  # txnco_oregon, the client's
    crash_after_answer(coordinator)
    answers = []
    answer = coordinator._answer
    coordinator._answer = lambda state: (
        answers.append(state.winner is not None), answer(state))
    cluster.sim.schedule(ms(10), writer.transact, [("put", key1, "w1")])
    cluster.sim.schedule_at(sec(1.0), client.transact,
                            [("put", key0, "v0"), ("get", key1, None)])
    cluster.sim.schedule_at(sec(2.0), writer.transact, [("put", key1, "w2")])
    cluster.sim.schedule_at(sec(2.5), coordinator.recover)
    cluster.sim.run(until=sec(14.0))

    assert coordinator.recoveries == 1 and coordinator.commits == 1
    assert [r.server for r in dropped + replies] == [coordinator.name] * 2
    assert answers == [False, True]  # the retry answered from the winner
    assert dropped[0].reads == replies[0].reads == {key1: "w1"}
    assert client.txns_committed == 1
    assert cluster.write_orders()[key0] == ["v0"]
    assert cluster.write_orders()[key1] == ["w1", "w2"]
    assert cluster.locks_left() == 0


def test_sibling_attempt_through_a_second_coordinator_executes_once():
    """A client's rotated retry reaches a second coordinator while the
    first is still running the same transaction.  The two attempts meet
    at the home shard's keys, where only one can hold them: one commits,
    and the other either dies there or, once the winner is bound, gets a
    no vote with the winner attached.  The transaction executes once, and
    every reply either coordinator gives carries the winner's reads."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    writer = manual_client(cluster, "c_writer", "ohio")
    client = manual_client(cluster)
    replies = replies_seen(client)
    cluster.sim.schedule(ms(10), writer.transact, [("put", key1, "w1")])
    ops = [["put", key0, "v0"], ["get", key1, None]]

    def both():
        request = TxnRequest(client=client.name, txn_seq=1,
                             ts=cluster.sim.now, ops=ops)
        client.send("txnco_oregon", request)
        client.send("txnco_ohio", request)
    cluster.sim.schedule_at(sec(1.0), both)
    cluster.sim.schedule_at(sec(4.0), both)  # the client's retries
    cluster.sim.run(until=sec(6.0))

    winners = [c for c in cluster.coordinators if c.commits]
    assert len(winners) == 1
    assert {r.server for r in replies} == {"txnco_oregon", "txnco_ohio"}
    assert all(r.reads == {key1: "w1"} for r in replies)
    assert owner_version(cluster, key0) == 1
    assert cluster.locks_left() == 0
    # One commit record, the winner's (the decisions are gone once each
    # coordinator's low-water at home passed its binds).
    record = cluster.leader_replica(0).store._txn_commits["c_manual:1"]
    assert (record["outcome"], record["coord"]) == ("commit", winners[0].name)


def test_sibling_started_after_the_winner_is_bound_gets_it_from_the_vote():
    """The rotated retry reaches another coordinator after the winner
    bound the transaction in its home shard.  Nothing but that home
    record knows the transaction was answered: the sibling's home prepare
    votes no with the winner attached, and its coordinator answers from
    the winner."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    writer = manual_client(cluster, "c_writer", "ohio")
    client = manual_client(cluster)
    replies = replies_seen(client)
    by_name = {c.name: c for c in cluster.coordinators}
    first, second = by_name["txnco_ohio"], by_name["txnco_oregon"]
    request = TxnRequest(client=client.name, txn_seq=1, ts=sec(1.0),
                         ops=[["put", key0, "v0"], ["get", key1, None]])
    release_rest = first._release_rest

    def bound(state):
        release_rest(state)
        client.send(second.name, request)
    first._release_rest = bound
    cluster.sim.schedule(ms(10), writer.transact, [("put", key1, "w1")])
    cluster.sim.schedule_at(sec(1.0), client.send, first.name, request)
    cluster.sim.run(until=sec(6.0))

    assert (first.commits, second.commits) == (1, 0)
    assert [r.server for r in replies] == [first.name, second.name]
    assert all(r.reads == {key1: "w1"} for r in replies)
    assert owner_version(cluster, key0) == 1
    assert cluster.locks_left() == 0


def false_take(cluster, janitor, victim):
    """Journal a takeover of the live `victim` by `janitor`, as a janitor
    misreading a slow lease would."""
    janitor.journal({"k": "take", "v": victim.name, "by": janitor.name,
                     "fe": janitor.view.fence_of(victim.name) + 1})


def test_false_takeover_of_an_answered_coordinator_commits():
    """A janitor takes over a live coordinator that has answered its
    client and is slow to run phase 2.  Every participant reports the
    handle prepared, so the janitor commits it — an abort here would
    lose an acknowledged write."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    replies = replies_seen(client)
    victim, janitor = cluster.coordinators[0], cluster.coordinators[1]
    aborts = []
    for replicas in cluster.groups.values():
        for replica in replicas.values():
            replica.on_apply_hooks.append(
                lambda r, i, command: command.op is OpType.TXN_ABORT
                and aborts.append(command))
    stalled = []
    bind = victim._bind

    def slow_bind(state, outcome):
        if outcome == "commit" and not stalled:
            stalled.append(state)
            false_take(cluster, janitor, victim)
            cluster.sim.schedule(sec(2.0), bind, state, outcome)
        else:
            bind(state, outcome)
    victim._bind = slow_bind
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    cluster.sim.run(until=sec(6.0))

    assert stalled and victim.alive
    assert janitor.failovers == 1
    assert aborts == []
    home = cluster.leader_replica(0).store
    assert home._decisions[stalled[0].handle]["outcome"] == "commit"
    assert_one_execution(cluster, client, replies, [key0, key1])


def test_a_janitors_abort_after_the_home_bind_is_answered_with_the_commit():
    """The home store keeps a bound decision while the bind's slot is
    open, and its coordinator keeps that slot open until every
    participant has released the handle, not just until the home shard
    answers.  Here the coordinator binds a commit at home, sends a next
    attempt's prepare there (whose low-water would pass the bind had the
    slot closed at the home reply) and stalls before releasing the other
    participant.  A janitor that takes it over sees the handle prepared
    there only, and binds an abort at home: it must be answered with the
    commit and install it, not drop an answered transaction's writes."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=8.0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    next0 = find_key(cluster, 0, start=int(key0[1:]) + 1)
    next1 = find_key(cluster, 1, start=int(key1[1:]) + 1)
    client = manual_client(cluster)
    replies = replies_seen(client)
    victim, janitor = cluster.coordinators[0], cluster.coordinators[1]
    answered = []
    on_decision = janitor._on_decision
    janitor._on_decision = lambda state, decision: (
        answered.append(decision.get("outcome")), on_decision(state, decision))
    stalled = []
    release_rest = victim._release_rest

    def stall(state):
        if stalled:
            release_rest(state)
            return
        stalled.append(state)
        victim._start_attempt("x:1", None, [["put", next0, "x"],
                                            ["put", next1, "y"]],
                              cluster.sim.now)
        cluster.sim.schedule(ms(300), false_take, cluster, janitor, victim)
        cluster.sim.schedule(sec(3.0), release_rest, state)
    victim._release_rest = stall
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    cluster.sim.run(until=sec(8.0))

    assert stalled and janitor.failovers == 1
    assert answered == ["commit"]
    assert_one_execution(cluster, client, replies, [key0, key1])


def test_false_takeover_leaves_the_victims_new_attempts_to_it():
    """A falsely taken coordinator lives on under the take's fence epoch,
    and its new attempt's prepares straddle the janitor's `TXN_RECOVER`:
    the home shard logs the prepare before the sweep's query, the other
    participant after it.  The fence does not stop such a prepare, so the
    home report is not final and the sweep must leave the handle to its
    live owner: aborting it would drop the writes of a transaction the
    owner answers once the second yes lands."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=8.0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    replies = replies_seen(client)
    victim, janitor = cluster.coordinators[0], cluster.coordinators[1]
    applied = []   # (shard, op, client id or handle) in apply order
    for shard, replicas in cluster.groups.items():
        for replica in replicas.values():
            replica.on_apply_hooks.append(
                lambda r, i, command, shard=shard: applied.append(
                    (shard, command.op, command.client_id
                     if command.op is not OpType.TXN_PREPARE
                     else payload_of(command)["handle"])))

    def landed(shard, op, prefix):
        return any(s == shard and o is op and c.startswith(prefix)
                   for s, o, c in applied)

    def hold(node, name, until, release):
        """Run `node.<name>(...)` calls for which `release(*args)` holds
        only once `until()` does (polled every millisecond)."""
        original = getattr(node, name)

        def held(*args):
            if release(*args) and not until():
                cluster.sim.schedule(ms(1), held, *args)
            else:
                original(*args)
        setattr(node, name, held)

    recover = "__txnrec__:"
    attempt = f"c_manual:1#{victim.name}"
    # The sweep's query reaches the home shard only after the victim's
    # prepare has applied there...
    hold(janitor, "_send", lambda: landed(0, OpType.TXN_PREPARE, attempt),
         lambda holder, shard, command: command.client_id.startswith(recover)
         and shard == 0)
    # ...and the victim's other prepare only after the query applied there.
    hold(victim, "_send", lambda: landed(1, OpType.TXN_RECOVER, recover),
         lambda holder, shard, command: command.op is OpType.TXN_PREPARE
         and shard == 1)
    # The victim binds its commit only after the sweep has resolved and
    # finished what it saw, so a wrong abort would be bound at home first.
    swept = []
    finish_sweep = janitor._finish_sweep
    janitor._finish_sweep = lambda sweep: (swept.append(sweep.victim),
                                           finish_sweep(sweep))
    hold(victim, "_bind",
         lambda: swept and not janitor._by_handle,
         lambda state, outcome: outcome == "commit")

    taken = []
    on_record = victim.on_control_record

    def adopt_then_transact(record):
        on_record(record)
        if record.get("k") == "take" and not taken:
            taken.append(victim.epoch)
            client.transact([("put", key0, "v0"), ("put", key1, "v1")])
    victim.on_control_record = adopt_then_transact
    cluster.sim.schedule_at(sec(1.0), false_take, cluster, janitor, victim)
    cluster.sim.run(until=sec(8.0))

    assert taken and swept == [victim.name]
    assert janitor.failovers == 1
    handle = next(c for s, o, c in applied if c.startswith(attempt))
    assert f".{taken[0]}." in handle  # stamped with the take's epoch

    def first(shard, op, prefix):
        return next(i for i, (s, o, c) in enumerate(applied)
                    if s == shard and o is op and c.startswith(prefix))
    assert (first(0, OpType.TXN_PREPARE, attempt)
            < first(0, OpType.TXN_RECOVER, recover))
    assert (first(1, OpType.TXN_RECOVER, recover)
            < first(1, OpType.TXN_PREPARE, attempt))
    assert lost_installs(cluster) == []
    assert_one_execution(cluster, client, replies, [key0, key1])


def test_falsely_taken_coordinator_is_taken_again_when_it_dies():
    """A coordinator taken over while alive journals a fence of its own
    above the take, so when it really dies later — holding prepared
    locks — a peer takes it over again and the locks clear."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=8.0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    victim, janitor = cluster.coordinators[0], cluster.coordinators[1]
    takes = []
    victim.view.listeners.append(
        lambda record: record.get("k") == "take"
        and record["v"] == victim.name and takes.append(record["fe"]))
    cluster.sim.schedule_at(sec(1.0), false_take, cluster, janitor, victim)
    crash_after_first_yes(victim)
    cluster.sim.schedule_at(sec(2.0), client.transact,
                            [("put", key0, "v0"), ("put", key1, "v1")])
    at = sec(2.0)
    while victim.alive:
        at += ms(5)
        cluster.sim.run(until=at)
    assert cluster.locks_left() > 0  # the first yes holds its locks

    cluster.sim.run(until=sec(8.0))
    first, *later = sorted(set(takes))
    assert later and later[0] > first  # taken again, above its own fence
    assert cluster.locks_left() == 0


# -- fault windows (nemesis-driven) -------------------------------------------


def test_nemesis_leader_kill_mid_prepare_commits_exactly_once():
    """Kill a participant leader right after the prepare lands: the new
    leader must answer the coordinator's retry from the replicated lock
    table / dedup cache, and the transaction commits exactly once."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])

    def kill_leader():
        leader = cluster.leader_replica(1)
        if leader.alive:
            leader.crash()
            cluster.sim.schedule(sec(1.2), leader.recover)
    # One WAN round trip (~100-250ms) puts the prepare in g1's log.
    cluster.sim.schedule_at(ms(260), kill_leader)
    cluster.sim.run(until=sec(8.0))
    assert client.txns_committed == 1
    assert owner_version(cluster, key0) == 1
    assert owner_version(cluster, key1) == 1
    assert cluster.locks_left() == 0


def test_nemesis_coordinator_kill_mid_commit_recovers_from_decision_log():
    """Crash the coordinator after the commit point but (in general)
    before phase 2 finished: recovery must find the votes or the decision
    bound in the home log, push the commit through, and answer the
    client's retry from the rebuilt cache — exactly one installed write
    per key."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    coordinator = cluster.coordinators[0]  # txnco_oregon, the client's

    def kill():
        if coordinator.alive:
            coordinator.crash()
            cluster.sim.schedule(sec(1.0), coordinator.recover)
    # ~500ms in, both votes are logged and phase 2 is (at most) in
    # flight.
    cluster.sim.schedule_at(ms(520), kill)
    cluster.sim.run(until=sec(12.0))
    assert client.txns_committed == 1
    assert coordinator.recoveries == 1
    assert owner_version(cluster, key0) == 1
    assert owner_version(cluster, key1) == 1
    assert cluster.locks_left() == 0


def test_nemesis_coordinator_kill_mid_prepare_releases_orphan_locks():
    """Crash the coordinator mid-prepare: a prepared participant holds
    locks for a transaction nobody will finish.  Recovery's fenced
    TXN_RECOVER resolves it by the votes — committed if every prepare
    landed before the fence, aborted otherwise — releasing the locks, and
    the client's transaction commits exactly once either way."""
    cluster = TxnCluster(txn_spec(clients_per_region=0))
    key0, key1 = find_key(cluster, 0), find_key(cluster, 1)
    client = manual_client(cluster)
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", key0, "v0"), ("put", key1, "v1")])
    coordinator = cluster.coordinators[0]

    def kill():
        if coordinator.alive:
            coordinator.crash()
            cluster.sim.schedule(sec(1.0), coordinator.recover)
    # ~150ms in: prepares sent (and landing), no decision yet.
    cluster.sim.schedule_at(ms(150), kill)
    cluster.sim.run(until=sec(12.0))
    assert client.txns_committed == 1
    assert coordinator.recoveries == 1
    # exactly-once despite the abort/retry cycle
    assert owner_version(cluster, key0) == 1
    assert owner_version(cluster, key1) == 1
    assert cluster.locks_left() == 0


@pytest.mark.parametrize("seed", range(6))
def test_nemesis_random_faults_keep_txns_safe(seed):
    """Randomized leader kills/partitions plus a coordinator kill under
    50% cross-shard load: every seed must keep the committed history
    strictly serializable with zero lost/duplicated acks and zero
    re-executed writes."""
    cluster = TxnCluster(txn_spec(seed=seed, duration_s=8.0))
    txn_nemesis(cluster, seed, window=(1.0, 5.0))
    result = cluster.run()
    assert result.committed_total > 20
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.strict_serializable
    assert all(not v for v in result.prefix_violations.values())


@pytest.mark.parametrize("seed", [7, 18, 26])
def test_nemesis_host_kill_and_false_takeovers_lose_no_acked_write(seed):
    """Leader faults, two coordinator crashes and a coordinator host kill:
    the control-log stalls make janitors take live coordinators too, and
    those keep running attempts under the take's epoch.  A sweep that
    aborted such an attempt from a non-final report dropped the writes of
    a transaction its owner answered (on these seeds, one or two); every
    acknowledged write must install."""
    cluster = TxnCluster(txn_spec(seed=seed, duration_s=8.0))
    nemesis = txn_nemesis(cluster, seed, window=(1.0, 5.0), events=4,
                          coordinator_kills=2)
    nemesis.random_schedule(1, 1.0, 5.0, kinds=("coordinator_host_kill",))
    result = cluster.run()
    assert result.failovers > 0
    assert result.safe and result.duplicate_executions == 0
    assert lost_installs(cluster) == []


# -- retries of an answered transaction -------------------------------------


def test_coordinator_retry_of_an_answered_txn_is_answered_from_home():
    """A duplicate TxnRequest for a committed txn_seq starts a fresh
    attempt, whose home prepare meets the commit record — not re-executed
    (version counts stay put)."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=8.0))
    client = manual_client(cluster)
    k0, k1 = find_key(cluster, 0), find_key(cluster, 1)
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", k0, "a"), ("put", k1, "b")])
    cluster.sim.run(until=sec(2))
    assert client.txns_committed == 1
    assert owner_version(cluster, k0) == 1

    # Replay the request (a lost-reply retransmit still in the network):
    # same (client, txn_seq), same ops — must meet the home record.
    replay = TxnRequest(client="c_manual", txn_seq=1, ts=0,
                        ops=[["put", k0, "a"], ["put", k1, "b"]])
    cluster.sim.schedule(ms(10), client.send, "txnco_oregon", replay)
    cluster.sim.run(until=sec(3))
    assert owner_version(cluster, k0) == 1  # nothing re-executed
    assert client.txns_committed == 1       # stale reply discarded client-side


def test_an_attempts_commands_share_their_key_and_client_texts():
    """Every command of one 2PC attempt names it by the same two strings,
    built once per attempt: a log of its prepare and commit keeps one copy
    of each text, not one per command."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=4.0))
    client = manual_client(cluster)
    k0, k1 = find_key(cluster, 0), find_key(cluster, 1)
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", k0, "a"), ("put", k1, "b")])
    cluster.sim.run(until=sec(2))
    assert client.txns_committed == 1
    home = cluster.leader_replica(0)  # the lowest participant binds
    commands = [entry.command for entry in home.log
                if entry.command.client_id.startswith("__txn__:")]
    assert [command.op for command in commands] == [OpType.TXN_PREPARE,
                                                    OpType.TXN_COMMIT]
    first = commands[0]
    assert all(command.key is first.key
               and command.client_id is first.client_id
               for command in commands)


def test_retransmit_of_evicted_txn_seq_is_dropped_not_reexecuted():
    """Regression: a delayed retransmit of an answered txn_seq (reorder
    on a non-FIFO network, or a retry racing the ack), arriving after a
    later transaction overwrote the same keys, once started a FRESH 2PC
    attempt that re-executed committed writes.  The home shard's commit
    record answers the fresh attempt instead."""
    cluster = TxnCluster(txn_spec(clients_per_region=0, duration_s=10.0))
    client = manual_client(cluster)
    k0, k1 = find_key(cluster, 0), find_key(cluster, 1)
    cluster.sim.schedule(ms(10), client.transact,
                         [("put", k0, "a"), ("put", k1, "b")])
    cluster.sim.run(until=sec(2))
    cluster.sim.schedule_at(sec(2), client.transact,
                            [("put", k0, "c"), ("put", k1, "d")])
    cluster.sim.run(until=sec(4))
    assert client.txns_committed == 2
    coordinator = next(c for c in cluster.coordinators
                       if c.name == "txnco_oregon")

    # The delayed retransmit of txn 1 arrives after txn 2 committed.
    replay = TxnRequest(client="c_manual", txn_seq=1, ts=0,
                        ops=[["put", k0, "a"], ["put", k1, "b"]])
    cluster.sim.schedule(ms(10), client.send, "txnco_oregon", replay)
    cluster.sim.run(until=sec(6))
    assert client.txns_committed == 2
    # txn 1's writes executed exactly once: versions reflect txn1 + txn2
    assert owner_version(cluster, k0) == 2
    assert owner_version(cluster, k1) == 2
    # and the attempt the retransmit started is finished
    assert "c_manual:1" not in coordinator._active


# -- participant state follows what is in flight ------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_home_decisions_stay_flat_as_the_run_goes_on(seed):
    """A home replica keeps a decision only while the slot that bound it
    is open, so their number follows the transactions in flight, not the
    ones the run has committed (kept for the life of the store, they were
    172 at 5 s and 355 at 10 s on seed 1)."""
    cluster = TxnCluster(txn_spec(seed=seed, duration_s=10.0))
    counts = []
    for at in (5.0, 10.0):
        cluster.sim.run(until=sec(at))
        counts.append(max(len(replica.store._decisions)
                          for replica in cluster.groups[0].values()))
    assert max(counts) <= 2 * len(cluster.clients)
    assert counts[1] <= counts[0] + 5


def test_participant_sessions_follow_the_fleet_not_the_run_length():
    """One dedup session per client and per coordinator incarnation: on
    the ledger's `mux-txn-colocated` workload (seed 1) the largest store
    holds as many sessions at 6.5 s as at 4 s, at most one per client and
    coordinator (a session per 2PC attempt made that 604, then 887)."""
    workload = BY_NAME["mux-txn-colocated"]
    cluster = workload.build(workload.sizing(1, 1.0), False)
    counts = []
    for at in (4.0, 6.5):
        cluster.sim.run(until=sec(at))
        counts.append(max(len(replica.store._sessions)
                          for replicas in cluster.groups.values()
                          for replica in replicas.values()))
    assert counts[0] == counts[1]
    assert counts[1] <= len(cluster.clients) + len(cluster.coordinators)


# -- end-of-run accounting ------------------------------------------------------


def write_orders_by_copying(cluster):
    """`TxnCluster.write_orders` as it was before it stopped copying every
    replica's history of every key: the reference the in-place version
    must equal element for element."""
    orders = {}
    for shard, replicas in cluster.groups.items():
        keys = set()
        for replica in replicas.values():
            keys |= set(replica.store.install_orders())
        for key in keys:
            if cluster.partitioner.shard_of(key) != shard:
                continue
            best = []
            for replica in replicas.values():
                order = replica.store.write_order(key)
                if len(order) > len(best):
                    best = order
            orders[key] = best
    return orders


def test_write_orders_equal_the_copying_reference_and_alias_nothing():
    cluster = TxnCluster(txn_spec(duration_s=3.0))
    cluster.run()
    # Replicas lag each other at the cut-off, so "longest wins" matters.
    lengths = {len(replica.log) for replica in cluster.groups[0].values()}
    assert len(lengths) > 1
    orders = cluster.write_orders()
    reference = write_orders_by_copying(cluster)
    assert orders and list(orders.values()) != [[]] * len(orders)
    assert orders == reference
    assert all(type(order) is list for order in orders.values())
    # The winner is copied once: the checker's input is not a store's log.
    for key, order in orders.items():
        order.append("scribble")
    assert cluster.write_orders() == reference


def test_write_orders_copies_one_history_per_key_not_one_per_replica(
        monkeypatch):
    from repro.kvstore.store import KVStore

    cluster = TxnCluster(txn_spec(duration_s=2.0))
    cluster.run()
    copies = []
    monkeypatch.setattr(KVStore, "write_order",
                        lambda self, key: copies.append(key) or [])
    orders = cluster.write_orders()
    assert orders and copies == []
