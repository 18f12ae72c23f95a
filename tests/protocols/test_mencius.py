"""Raft*-Mencius / Coordinated Paxos."""

import pytest

from repro.protocols import mencius
from repro.protocols.mencius import (
    CoordinatedPaxosReplica,
    MenciusReplica,
    RaftStarMenciusReplica,
    STATUS_ACCEPTED,
    STATUS_COMMITTED,
    STATUS_SKIPPED,
)
from repro.sim.units import ms, sec


@pytest.fixture(autouse=True)
def fast_revoke(monkeypatch):
    monkeypatch.setattr(mencius, "REVOKE_TIMEOUT", ms(400))


def build(cluster_factory, mode="ordered", **kwargs):
    kwargs.setdefault("leader", None)
    kwargs.setdefault("replica_kwargs", {"execution_mode": mode})
    kwargs.setdefault("config_kwargs", {})
    kwargs["config_kwargs"].setdefault("skip_interval", ms(10))
    return cluster_factory(RaftStarMenciusReplica, **kwargs)


def test_every_replica_serves_its_own_clients(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(5)
    cmds = [cluster.client.put(f"s{i}", f"k{i}", f"v{i}") for i in range(3)]
    cluster.run_ms(300)
    for cmd in cmds:
        assert cluster.client.reply_for(cmd).ok


def test_owned_indexes_round_robin(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(5)
    cluster.client.put("s1", "k", "v")
    cluster.run_ms(200)
    replica = cluster["s1"]
    owned = [i for i, e in replica.entries.items()
             if e.command.key == "k"]
    assert owned and all(i % 3 == 1 for i in owned)


def test_states_converge_across_replicas(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(5)
    for i in range(6):
        cluster.client.put(f"s{i % 3}", f"k{i}", f"v{i}")
    cluster.run_ms(500)
    snapshots = [replica.store.snapshot() for replica in cluster.values()]
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert len(snapshots[0]) == 6


def test_skips_fill_idle_owners(cluster_factory):
    """Only s0 proposes; s1/s2's indexes must be skipped so s0's entries
    execute."""
    cluster = build(cluster_factory)
    cluster.run_ms(5)
    cmd = cluster.client.put("s0", "k", "v")
    cluster.run_ms(300)
    assert cluster.client.reply_for(cmd).ok
    replica = cluster["s0"]
    skipped = [i for i, s in replica.status.items() if s == STATUS_SKIPPED]
    assert skipped, "idle owners' indexes must be skipped"


def test_frontier_advertised_and_learned(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(5)
    cluster.client.put("s0", "k", "v")
    cluster.run_ms(300)
    # everyone learned s0's frontier advance
    for name in ("s1", "s2"):
        assert cluster[name].frontier["s0"] >= 3


def test_commutative_mode_lower_latency_than_ordered(cluster_factory):
    def one_run(mode):
        cluster = build(cluster_factory, mode=mode, rtt_ms=40.0)
        cluster.run_ms(5)
        cmd = cluster.client.put("s0", "k", "v")
        cluster.run_ms(1000)
        reply_time = next(t for t, _, r in cluster.client.replies
                          if r.request_id == cmd.request_id)
        return reply_time

    assert one_run("commutative") <= one_run("ordered")


def test_execution_order_identical_everywhere(cluster_factory):
    applied = {}
    cluster = build(cluster_factory)
    for name, replica in cluster.replicas.items():
        applied[name] = []
        replica.on_apply_hooks.append(
            lambda n, i, c: applied[n].append((i, c.client_id, c.seq)))
    cluster.run_ms(5)
    for i in range(9):
        cluster.client.put(f"s{i % 3}", f"k{i}", f"v{i}")
    cluster.run_ms(600)
    non_nop = {
        name: [x for x in seq]
        for name, seq in applied.items()
    }
    assert non_nop["s0"] == non_nop["s1"] == non_nop["s2"]


def test_crashed_owner_revoked_and_log_moves_on(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(5)
    cluster["s2"].crash()
    cmd = cluster.client.put("s0", "k", "after-crash")
    cluster.run_ms(2500)  # revoke timeout + recovery round
    reply = cluster.client.reply_for(cmd)
    assert reply is not None and reply.ok
    assert cluster["s1"].store.read_local("k") == "after-crash"


def test_client_command_survives_revocation(cluster_factory):
    """If a recovery no-ops an owner's pending index, the owner re-proposes
    the ousted command at a fresh index."""
    cluster = build(cluster_factory)
    cluster.run_ms(5)
    # partition s2 away from the other replicas (client connectivity stays)
    cluster.network.block("s2", "s0")
    cluster.network.block("s2", "s1")
    cmd = cluster.client.put("s2", "k", "survive")
    cluster.run_ms(1500)  # others revoke s2's stalled range
    cluster.network.heal()
    cluster.run_ms(2500)
    reply = cluster.client.reply_for(cmd)
    assert reply is not None and reply.ok
    assert cluster["s0"].store.read_local("k") == "survive"


def test_coordinated_paxos_variant_works(cluster_factory):
    cluster = cluster_factory(CoordinatedPaxosReplica, leader=None,
                              replica_kwargs={"execution_mode": "ordered"},
                              config_kwargs={"skip_interval": ms(10)})
    cluster.run_ms(5)
    cmd = cluster.client.put("s1", "k", "v")
    cluster.run_ms(300)
    assert cluster.client.reply_for(cmd).ok


def test_skip_tags_recorded(cluster_factory):
    cluster = build(cluster_factory)
    cluster.run_ms(5)
    cluster.client.put("s0", "k", "v")
    cluster.run_ms(300)
    replica = cluster["s1"]
    assert STATUS_SKIPPED in replica.status.values()


# -- per-slot state: pruned when a slot is done, kept while recovery needs it --


def test_steady_state_keeps_no_ack_sets_or_ballot_zero_promises(cluster_factory):
    """Fault-free traffic: an ack set is dropped when its index commits and
    a ballot-0 promise is never stored (`promised.get(index, 0)` reads the
    same), so neither table grows with the log."""
    cluster = build(cluster_factory, n=5)
    cluster.run_ms(5)
    cmds = [cluster.client.put(f"s{i % 5}", f"k{i}", f"v{i}") for i in range(40)]
    cluster.run_ms(600)
    assert all(cluster.client.reply_for(cmd).ok for cmd in cmds)
    for replica in cluster.values():
        assert replica.last_applied >= 40
        assert replica._acks == {}
        assert replica.promised == {}


def _resolved_prefix(replica, upto):
    """What each index up to `upto` does to the state machine: a command's
    request id, or None for a no-op — an owner's own skip and a revoker's
    no-op at the same index are the same decision under different names."""
    assert all(replica.status[index] in (STATUS_COMMITTED, STATUS_SKIPPED)
               for index in range(upto + 1))
    commands = (replica.entries[index].command for index in range(upto + 1))
    return [None if command.is_nop else command.request_id
            for command in commands]


def _agree(replicas):
    """Every replica holds the same resolved prefix up to the lowest
    execution frontier, and the same store; returns that frontier."""
    upto = min(r.last_applied for r in replicas)
    prefixes = [_resolved_prefix(r, upto) for r in replicas]
    assert all(prefix == prefixes[0] for prefix in prefixes)
    assert len({r.store.digest() for r in replicas}) == 1
    return upto


@pytest.mark.parametrize("mode", ["ordered", "commutative"])
def test_revocation_mid_stream_keeps_resolved_prefixes_equal(cluster_factory, mode):
    """An owner crashes mid-stream and another is cut off holding a pending
    command: the survivors revoke both ranges under a recovery ballot > 0
    (the path that still needs `promised`), commit the recovery proposals
    by counted acks (the path that still needs `_acks`), and the cut-off
    owner re-proposes its ousted command.  The crashed owner then recovers
    and the cut heals: afterwards all five replicas hold the same resolved
    prefix and overwrites of one key landed in the order they were
    acknowledged."""
    from repro.kvstore.checker import HistoryChecker

    cluster = build(cluster_factory, mode=mode, n=5)
    checker = HistoryChecker()
    applied = {name: [] for name in cluster.replicas}
    for replica in cluster.values():
        replica.on_apply_hooks.append(checker.record_apply)
        replica.on_apply_hooks.append(
            lambda name, index, command: applied[name].append(
                (index, command)))
    client = cluster.client
    cluster.run_ms(5)
    warm = [client.put(f"s{i % 5}", f"k{i}", f"v{i}") for i in range(10)]
    first = client.put("s1", "x", "x1")
    cluster.run_ms(100)
    assert all(client.reply_for(cmd).ok for cmd in warm + [first])

    cluster["s4"].crash()
    # s2 is cut off both ways: everything it sends and everything sent to
    # it is lost, so it misses broadcasts it must not read as skips.
    for peer in ("s0", "s1", "s3"):
        cluster.network.block("s2", peer)
    survive = client.put("s2", "held", "survive")
    stalled = [client.put(f"s{i}", f"m{i}", f"w{i}") for i in (0, 1, 3)]
    cluster.run_ms(5)
    (proposed_at,) = [index for index, entry in cluster["s2"].entries.items()
                      if entry.command.request_id == survive.request_id]
    cluster.run_ms(1500)  # s0 revokes s2's and s4's stalled ranges
    assert all(client.reply_for(cmd).ok for cmd in stalled)
    assert client.reply_for(survive) is None
    second = client.put("s3", "x", "x2")
    cluster.run_ms(1500)  # stalls on the dead owners' next slots: revoked again
    assert client.reply_for(second).ok

    # s4 comes back and replays from its stable log: its apply stream is
    # counted from there.
    replay_from = len(applied["s4"])
    cluster["s4"].recover()
    cluster.network.heal()
    cluster.run_ms(3000)
    assert client.reply_for(survive).ok  # ousted, then re-proposed
    third = client.put("s2", "x", "x3")
    cluster.run_ms(1500)
    assert client.reply_for(third).ok

    replicas = cluster.values()
    # Recovery really ran under a higher ballot, and was promised to.
    assert any(ballot > 0 for r in replicas for ballot in r.promised.values())
    assert any(entry.ballot > 0 for entry in cluster["s1"].entries.values())
    # The recovery no-op took the slot s2 first proposed in; the command
    # now sits in a later slot of s2's.
    assert cluster["s2"].entries[proposed_at].command.is_nop
    assert cluster["s2"].entries[proposed_at].ballot > 0
    (held,) = [index for index, entry in cluster["s2"].entries.items()
               if entry.command.request_id == survive.request_id]
    assert held > proposed_at and held % 5 == 2

    assert _agree(replicas) > 30
    # Every apply, s4's replay included, agrees with the group's one log.
    assert checker.check_prefix_agreement() == []
    # The apply streams agree too (no-ops compared as no-ops).
    applied["s4"] = applied["s4"][replay_from:]
    streams = {name: {index: None if c.is_nop else c.request_id
                      for index, c in applies}
               for name, applies in applied.items()}
    for replica in replicas:
        assert all(streams["s0"].get(index, rid) == rid
                   for index, rid in streams[replica.name].items()), replica.name
    # Each acknowledged write applied exactly once, everywhere ...
    acked = {cmd.request_id for cmd in warm + stalled
             + [first, second, third, survive]}
    for replica in replicas:
        seen = [c.request_id for _, c in applied[replica.name]
                if c.request_id in acked]
        assert sorted(seen) == sorted(acked), replica.name
    # ... and the overwrites of "x" in acknowledgement order.
    for replica in replicas:
        assert replica.store.read_local("x") == "x3"
        assert replica.store.read_local("held") == "survive"


# -- lost messages: one rule resolves a slot ------------------------------------


@pytest.mark.parametrize("mode", ["ordered", "commutative"])
def test_partition_with_owner_recovery_converges(cluster_factory, mode):
    """An owner crashes, another is cut off both ways while writes go on,
    then the first recovers and the cut heals.  The replicas that missed
    broadcasts must not read the gaps as skips: all five end on one
    resolved prefix and one store, and every write is acknowledged."""
    cluster = build(cluster_factory, mode=mode, n=5)
    client = cluster.client
    cluster.run_ms(5)
    puts = [client.put(f"s{i % 5}", f"k{i}", f"v{i}") for i in range(10)]
    cluster.run_ms(100)
    cluster["s4"].crash()
    for peer in ("s0", "s1", "s3"):
        cluster.network.block("s2", peer)
    puts += [client.put(f"s{i % 4}", f"a{i}", f"a{i}") for i in range(4)]
    for i in range(6):
        cluster.run_ms(500)
        puts.append(client.put(f"s{i % 4}", f"b{i}", f"b{i}"))
    cluster.run_ms(500)
    cluster["s4"].recover()
    cluster.network.heal()
    puts += [client.put(f"s{i % 5}", f"c{i}", f"c{i}") for i in range(10)]
    cluster.run_ms(3000)
    assert all(client.reply_for(cmd) is not None for cmd in puts)
    assert _agree(cluster.values()) > 1000


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("mode", ["ordered", "commutative"])
def test_random_loss_converges(cluster_factory, mode, seed):
    """5 % of all messages lost for a second of writes, then a loss-free
    drain: no index resolves two ways and the stores end equal."""
    cluster = build(cluster_factory, mode=mode, n=5, seed=seed)
    cluster.run_ms(5)
    cluster.network.config.loss_rate = 0.05
    for i in range(20):
        cluster.client.put(f"s{i % 5}", f"k{i % 7}", f"v{i}")
        cluster.run_ms(50)
    cluster.network.config.loss_rate = 0.0
    cluster.run_ms(4000)
    assert _agree(cluster.values()) > 1000
    # An ack set lives only while its slot is open, whichever route
    # resolved the slot.
    for replica in cluster.values():
        assert all(replica.status.get(index) is STATUS_ACCEPTED
                   for index in replica._acks), replica.name


def _step_until(cluster, done, limit_ms=3000.0):
    for _ in range(int(limit_ms * 10)):
        if done():
            return
        cluster.run_ms(0.1)
    raise AssertionError("condition never held")


@pytest.mark.parametrize("mode", ["ordered", "commutative"])
def test_stale_value_is_not_executed_on_commit_news_for_a_recovery_noop(
        cluster_factory, mode):
    """s4's proposal reaches s3 alone, and s4 crashes.  s0 revokes the slot
    with a quorum that never saw the value, so a no-op is chosen at the
    recovery ballot; s3's promise and its copy of the recovery append are
    lost, but the commit news that follows reaches it.  s3 holds the
    ballot-0 value, not the entry the news names: it must wait for
    catch-up rather than execute the value."""
    cluster = build(cluster_factory, mode=mode, n=5)
    applied = []
    for replica in cluster.values():
        replica.on_apply_hooks.append(
            lambda name, index, command: applied.append(
                (name, index, command.request_id)))
    net = cluster.network
    cluster.run_ms(5)
    for peer in ("s0", "s1", "s2"):
        net.block("s4", peer, bidirectional=False)
    stale = cluster.client.put("s4", "k", "stale")
    cluster.run_ms(5)
    (slot,) = [index for index, entry in cluster["s3"].entries.items()
               if entry.command.request_id == stale.request_id]
    cluster["s4"].crash()
    net.heal()
    revoker = cluster["s0"]
    _step_until(cluster, lambda: "s4" in revoker._recovering)
    net.block("s3", "s0", bidirectional=False)   # s3's promise is lost
    net.block("s0", "s3", bidirectional=False)   # ... and the recovery append
    _step_until(cluster, lambda: "s4" not in revoker._recovering)
    net.heal()                                   # the commit news gets through
    cluster.run_ms(2000)
    assert revoker.entries[slot].command.is_nop
    assert revoker.entries[slot].ballot > 0
    assert (("s3", slot, stale.request_id)) not in applied
    assert _agree([r for r in cluster.values() if r.alive]) > slot


def test_refused_proposal_under_a_recovery_promise_is_not_read_as_a_skip(
        cluster_factory):
    """An acceptor that promised a recovery ballot on s4's slot refuses
    s4's late ballot-0 proposal there; the frontier that comes with it must
    not turn the refused slot into a skip — the recovery decides it."""
    from repro.protocols.messages import MenciusAppend
    from repro.protocols.types import Command, Entry, OpType

    cluster = build(cluster_factory, n=5)
    replica = cluster["s0"]
    replica.promised[9] = 7
    value = Command(op=OpType.PUT, key="k", value="v", client_id="c", seq=1)
    replica._on_append("s4", MenciusAppend(
        sender="s4", owner="s4", ballot=0, items={9: Entry(0, value, 0)},
        next_own=14, since=replica.frontier["s4"]))
    assert replica.frontier["s4"] == 14
    assert 9 not in replica.status
    assert replica.status[4] is STATUS_SKIPPED   # never proposed: a skip
    assert replica.entries[4].command == mencius.noop_command(seq=4)


def test_recovery_append_advances_its_senders_frontier(cluster_factory):
    """A recovery append carries its sender's frontier, not the revoked
    owner's: the sender's unproposed slots below it are skips, the owner's
    frontier stays where the owner's own broadcasts left it."""
    from repro.protocols.messages import MenciusAppend
    from repro.protocols.types import Entry

    cluster = build(cluster_factory, n=5)
    replica = cluster["s2"]
    noop = mencius.noop_command(seq=9)
    replica._on_append("s0", MenciusAppend(
        sender="s0", owner="s4", ballot=7, items={9: Entry(7, noop, 7)},
        next_own=20, since=replica.frontier["s0"]))
    assert replica.frontier["s0"] == 20 and replica.frontier["s4"] == 4
    assert all(replica.status[i] is STATUS_SKIPPED for i in (0, 5, 10, 15))
    assert 4 not in replica.status


def test_recovered_replica_pulls_its_log_in_chained_batches(cluster_factory):
    """A replica that recovers thousands of slots behind pulls them batch
    after batch as each answer lands, not one batch per stall timeout."""
    cluster = build(cluster_factory, n=5)
    cluster.run_ms(5)
    cluster["s4"].crash()
    cluster.run_ms(4000)
    behind = min(r.last_applied for r in cluster.values() if r.alive)
    assert behind > 2 * mencius.CATCHUP_BATCH
    cluster["s4"].recover()
    cluster.run_ms(1500)  # one stall detection, then the chained pulls
    assert cluster["s4"].last_applied >= behind


def test_recovering_replica_is_answered_once_per_window(cluster_factory):
    """A stall tick asks one peer, not all n-1: every peer would answer
    the same window, and the asker would pay for each copy."""
    from repro.protocols.messages import MenciusState

    cluster = build(cluster_factory, n=5)
    cluster.run_ms(5)
    cluster["s4"].crash()
    cluster.run_ms(4000)
    behind = min(r.last_applied for r in cluster.values() if r.alive)
    assert behind > 2 * mencius.CATCHUP_BATCH
    windows = []
    for replica in cluster.values():
        def send(dst, message, send=replica.send):
            if dst == "s4" and type(message) is MenciusState:
                windows.append(min(message.items))
            send(dst, message)
        replica.send = send
    cluster["s4"].recover()
    cluster.run_ms(1500)
    assert cluster["s4"].last_applied >= behind
    assert len(windows) > 2
    assert len(windows) == len(set(windows)), sorted(windows)


def test_catchup_answers_only_what_unsticks_the_asker(cluster_factory):
    """A peer answers with the slots it resolved among `CATCHUP_BATCH` from
    the asker's stall point, and with nothing when that slot is unresolved
    here too."""
    from repro.protocols.messages import MenciusCatchup

    cluster = build(cluster_factory, n=5)
    replica = cluster["s0"]
    sent = []
    replica.send = lambda dst, message: sent.append(message)
    for index in range(2000):
        if index != 5:
            replica._mark_skipped(index)
    replica._on_catchup("s1", MenciusCatchup(start=5))
    assert sent == []
    replica._on_catchup("s1", MenciusCatchup(start=3))
    (answer,) = sent
    assert sorted(answer.items) == [3, 4] + list(
        range(6, 3 + mencius.CATCHUP_BATCH))


@pytest.mark.parametrize("mode", ["ordered", "commutative"])
def test_revocation_whose_prepare_lost_its_quorum_is_retried(
        cluster_factory, mode):
    """s4 crashes while s0, the replica that revokes its slots, cannot
    reach s1 or s3: the first prepare gathers no quorum.  After the heal s0
    prepares again under a fresh ballot, and the log moves on."""
    cluster = build(cluster_factory, mode=mode, n=5)
    client = cluster.client
    cluster.run_ms(5)
    puts = [client.put(f"s{i % 5}", f"k{i}", f"v{i}") for i in range(10)]
    cluster.run_ms(100)
    cluster["s4"].crash()
    cluster.network.block("s0", "s1", bidirectional=False)
    cluster.network.block("s0", "s3", bidirectional=False)
    cluster.run_ms(1500)
    cluster.network.heal()
    cluster.run_ms(5000)
    late = client.put("s1", "late", "late")
    cluster.run_ms(2000)
    assert all(client.reply_for(cmd).ok for cmd in puts + [late])
    assert _agree([r for r in cluster.values() if r.alive]) > 1000
