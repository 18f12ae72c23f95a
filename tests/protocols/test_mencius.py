"""Raft*-Mencius / Coordinated Paxos."""

import pytest

from repro.protocols import mencius
from repro.protocols.mencius import (
    CoordinatedPaxosReplica,
    MenciusReplica,
    RaftStarMenciusReplica,
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
    assert any(replica.skip_tags.values())


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
        assert replica._exec_frontier >= 40
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


@pytest.mark.parametrize("mode", ["ordered", "commutative"])
def test_revocation_mid_stream_keeps_resolved_prefixes_equal(cluster_factory, mode):
    """An owner crashes mid-stream and another is cut off holding a pending
    command: the survivors revoke both ranges under a recovery ballot > 0
    (the path that still needs `promised`), commit the recovery proposals
    by counted acks (the path that still needs `_acks`), and the cut-off
    owner re-proposes its ousted command.  Afterwards every replica holds
    the same resolved prefix and overwrites of one key landed in the order
    they were acknowledged."""
    from repro.kvstore.checker import HistoryChecker

    cluster = build(cluster_factory, mode=mode, n=5)
    checker = HistoryChecker()
    for replica in cluster.values():
        replica.on_apply_hooks.append(checker.record_apply)
    client = cluster.client
    cluster.run_ms(5)
    warm = [client.put(f"s{i % 5}", f"k{i}", f"v{i}") for i in range(10)]
    first = client.put("s1", "x", "x1")
    cluster.run_ms(100)
    assert all(client.reply_for(cmd).ok for cmd in warm + [first])

    cluster["s4"].crash()
    # s2 goes mute, not deaf: everything it sends is lost, everything sent
    # to it arrives.  (Cutting BOTH directions also drops appends on their
    # way to s2, and a frontier learned after the heal then reads the gap
    # as skips — the FIFO-without-loss assumption of the module docstring.)
    for peer in ("s0", "s1", "s3"):
        cluster.network.block("s2", peer, bidirectional=False)
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

    cluster.network.heal()
    cluster.run_ms(3000)
    assert client.reply_for(survive).ok  # ousted, then re-proposed
    third = client.put("s2", "x", "x3")
    cluster.run_ms(1500)
    assert client.reply_for(third).ok

    # s4 stays down: a replica that was dead (or deaf) while appends flew
    # reads the gap as skips once it hears a later frontier — the same
    # no-loss assumption as above, and not what this test is about.
    replicas = [r for r in cluster.values() if r.alive]
    assert len(replicas) == 4
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

    upto = min(r._exec_frontier for r in replicas)
    assert upto > 30
    prefixes = [_resolved_prefix(r, upto) for r in replicas]
    assert all(prefix == prefixes[0] for prefix in prefixes)
    # The apply streams agree too (no-ops compared as no-ops).
    streams = {name: {index: None if c.is_nop else c.request_id
                      for index, c in applies}
               for name, applies in checker.applied.items()}
    for replica in replicas:
        assert all(streams["s0"].get(index, rid) == rid
                   for index, rid in streams[replica.name].items()), replica.name
    # Each acknowledged write applied exactly once, everywhere ...
    acked = {cmd.request_id for cmd in warm + stalled
             + [first, second, third, survive]}
    for replica in replicas:
        applies = checker.applied[replica.name]
        seen = [c.request_id for _, c in applies if c.request_id in acked]
        assert sorted(seen) == sorted(acked), replica.name
    # ... and the overwrites of "x" in acknowledgement order.
    for replica in replicas:
        assert replica.store.read_local("x") == "x3"
        assert replica.store.read_local("held") == "survive"
