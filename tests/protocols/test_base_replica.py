"""ReplicaBase: sessions, forwarding, reply relays."""

import pytest

from repro.protocols import base
from repro.protocols.base import ReplicaBase
from repro.protocols.mencius import MenciusReplica
from repro.protocols.messages import ClientReply, ForwardBatch, ReplyRelay
from repro.protocols.multipaxos import MultiPaxosReplica
from repro.protocols.raft import RaftReplica
from repro.protocols.types import Command, Entry, OpType
from repro.sim.units import ms


class EchoReplica(ReplicaBase):
    """Minimal protocol: the designated leader applies immediately; others
    forward."""

    LEADER = "s0"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._next_index = 0

    def leader_hint(self):
        return self.LEADER

    def submit_command(self, command):
        if self.name != self.LEADER:
            self.forward_to_leader(command)
            return
        self.apply_entry(self._next_index, Entry(term=1, command=command))
        self._next_index += 1


def test_direct_client_gets_reply(cluster_factory):
    cluster = cluster_factory(EchoReplica, leader=None)
    cmd = cluster.client.put("s0", "k", "v")
    cluster.run_ms(20)
    reply = cluster.client.reply_for(cmd)
    assert reply.ok and reply.server == "s0"


def test_forwarded_client_reply_routed_back(cluster_factory):
    cluster = cluster_factory(EchoReplica, leader=None)
    cmd = cluster.client.put("s1", "k", "v")
    cluster.run_ms(50)
    reply = cluster.client.reply_for(cmd)
    assert reply is not None and reply.ok
    # the reply came back through the follower the client contacted
    assert any(src == "s1" for _, src, r in cluster.client.replies
               if r.request_id == cmd.request_id)


def test_forward_batching_flushes_on_size(cluster_factory, monkeypatch):
    monkeypatch.setattr(base, "FORWARD_BATCH_MAX", 2)
    monkeypatch.setattr(base, "FORWARD_FLUSH_INTERVAL", ms(100))
    cluster = cluster_factory(EchoReplica, leader=None)
    follower = cluster["s1"]
    sent = []
    original_send = follower.send

    def spy(dst, message):
        if isinstance(message, ForwardBatch):
            sent.append(len(message.commands))
        original_send(dst, message)

    follower.send = spy
    c1 = cluster.client.put("s1", "a", "1")
    c2 = cluster.client.put("s1", "b", "2")
    cluster.run_ms(10)  # well under the 100ms flush interval
    assert sent == [2]  # flushed by reaching FORWARD_BATCH_MAX


def test_forward_flush_timer(cluster_factory, monkeypatch):
    monkeypatch.setattr(base, "FORWARD_BATCH_MAX", 100)
    monkeypatch.setattr(base, "FORWARD_FLUSH_INTERVAL", ms(5))
    cluster = cluster_factory(EchoReplica, leader=None)
    cmd = cluster.client.put("s2", "k", "v")
    cluster.run_ms(50)
    assert cluster.client.reply_for(cmd) is not None


def test_unhandled_message_traced_not_fatal(cluster_factory):
    cluster = cluster_factory(EchoReplica, leader=None)
    replica = cluster["s0"]
    replica.on_message("client", object())
    assert replica.alive


def test_apply_hooks_called(cluster_factory):
    cluster = cluster_factory(EchoReplica, leader=None)
    seen = []
    cluster["s0"].on_apply_hooks.append(lambda n, i, c: seen.append((n, i)))
    cluster.client.put("s0", "k", "v")
    cluster.run_ms(20)
    assert seen == [("s0", 0)]


def test_local_read_rechecks_ownership_before_serving(cluster_factory):
    """A lease/local read pending across a MIGRATE_OUT must not be served
    from the exported (now empty) slot: serve_local_read re-checks the
    ownership guard and answers with a redirect instead of a ghost None."""
    cluster = cluster_factory(EchoReplica, leader=None)
    replica = cluster["s0"]
    replica.ownership_guard = lambda command: 1  # the key migrated to g1
    cmd = Command(op=OpType.GET, key="k", client_id="client", seq=1)
    replica._clients[cmd.request_id] = "client"
    replica.serve_local_read(cmd)
    cluster.run_ms(10)
    reply = cluster.client.reply_for(cmd)
    assert reply is not None and not reply.ok
    assert reply.shard_hint == 1
    assert not reply.local_read


def test_apply_time_wrong_shard_answered_with_redirect(cluster_factory):
    """A command that slipped into the log just before its key's range was
    exported is bounced with a redirect hint at apply time, not silently
    failed."""
    cluster = cluster_factory(EchoReplica, leader=None)
    replica = cluster["s0"]
    # Ownership flipped after the command entered the log: the guard and
    # filter both already reject the key when the entry applies.
    replica.store.set_key_filter(lambda key: False)
    replica.ownership_guard = lambda command: 2
    cmd = Command(op=OpType.PUT, key="k", value="v", client_id="client", seq=1)
    replica._clients[cmd.request_id] = "client"
    replica.apply_entry(0, Entry(term=1, command=cmd))
    cluster.run_ms(10)
    reply = cluster.client.reply_for(cmd)
    assert reply is not None and not reply.ok
    assert reply.shard_hint == 2
    assert replica.store.read_local("k") is None


def test_nop_entries_do_not_reply(cluster_factory):
    cluster = cluster_factory(EchoReplica, leader=None)
    replica = cluster["s0"]
    replica.apply_entry(0, Entry(term=1, command=Command(
        op=OpType.NOP, client_id="x", seq=1)))
    cluster.run_ms(10)
    assert cluster.client.replies == []


def _run_group(cluster_factory, replica_cls, observe):
    """One seeded group: 40 puts spread over three replicas, so each
    applies entries it answers for and entries nobody waits on.  Returns
    each replica's (store digest, last_applied), the indexes an apply
    hook saw (when `observe`), and the `apply_entry` calls made."""
    cluster = cluster_factory(replica_cls, seed=5)
    seen = {name: [] for name in cluster.replicas}
    calls = {name: 0 for name in cluster.replicas}
    for replica in cluster.values():
        if observe:
            replica.on_apply_hooks.append(
                lambda server, index, command: seen[server].append(index))
        original = replica.apply_entry

        def counted(index, entry, name=replica.name, original=original):
            calls[name] += 1
            original(index, entry)

        replica.apply_entry = counted
    cluster.run_ms(5)
    commands = []
    for i in range(40):
        commands.append(cluster.client.put(f"s{i % 3}", f"k{i % 7}", f"v{i}"))
        cluster.run_ms(3)
    cluster.run_ms(1000)
    assert all(cluster.client.reply_for(command) for command in commands)
    state = {replica.name: (replica.store.digest(), replica.last_applied)
             for replica in cluster.values()}
    return state, seen, calls


@pytest.mark.parametrize("replica_cls",
                         [RaftReplica, MultiPaxosReplica, MenciusReplica])
def test_apply_fast_path_equals_per_entry_apply(cluster_factory, replica_cls):
    """`_apply_to` hands an entry nobody waits on straight to the store
    unless something observes the applies.  An apply hook forces every
    entry through `apply_entry`: the stores must end the same either
    way, and the hook sees each index once, in order."""
    fast, _, fast_calls = _run_group(cluster_factory, replica_cls, False)
    slow, seen, slow_calls = _run_group(cluster_factory, replica_cls, True)
    assert fast == slow
    for name, (_, last_applied) in slow.items():
        assert seen[name] == list(range(last_applied + 1))
        assert slow_calls[name] == last_applied + 1
    # The unobserved run really took the fast path for some entries.
    assert sum(fast_calls.values()) < sum(
        last_applied + 1 for _, last_applied in fast.values())
