"""Equivalence contracts for the hot-path fast constructors and the
specialized dispatch paths (the PR's "bit-identical behavior" obligation,
stated as properties):

* `Command.make` / `Entry.make` / `AppendEntries.make` /
  `AppendEntriesReply.make` / `HostEnvelope.make` produce objects
  field-for-field equal to dataclass construction — including `__eq__`,
  `hash` where defined, and the lazy wire-size memo;
* the interned empty-heartbeat skeleton a Raft leader reuses across ticks
  equals what dataclass construction would have built for each tick;
* `ReplicaBase._handle` (the specialized one-frame dispatch) routes every
  registered message type to the same handler as the generic
  `Node._handle` -> `on_message` chain, with the same liveness and
  incarnation guards.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.protocols.base import ReplicaBase  # noqa: E402
from repro.protocols.messages import (  # noqa: E402
    AppendEntries,
    AppendEntriesReply,
    HostEnvelope,
    MuxedMessage,
)
from repro.protocols.raft import RaftReplica  # noqa: E402
from repro.protocols.types import (  # noqa: E402
    Command,
    Consistency,
    Entry,
    OpType,
)
from repro.sim.node import Node  # noqa: E402

keys = st.text(alphabet="abcdefgh", max_size=6)
commands = st.builds(
    Command,
    op=st.sampled_from(OpType),
    key=keys,
    value=st.one_of(st.none(), keys),
    client_id=keys,
    seq=st.integers(min_value=0, max_value=1 << 20),
    value_size=st.integers(min_value=0, max_value=4096),
    acked_low_water=st.integers(min_value=-1, max_value=1 << 20),
    consistency=st.sampled_from(Consistency),
    trace=st.one_of(st.none(), keys),
)
entries = st.builds(
    Entry,
    term=st.integers(min_value=0, max_value=100),
    command=commands,
    ballot=st.integers(min_value=-1, max_value=100),
)


@given(commands)
@settings(max_examples=200, deadline=None)
def test_command_make_equivalent(reference):
    made = Command.make(
        reference.op, key=reference.key, value=reference.value,
        client_id=reference.client_id, seq=reference.seq,
        value_size=reference.value_size,
        acked_low_water=reference.acked_low_water,
        consistency=reference.consistency, trace=reference.trace)
    assert made == reference
    assert hash(made) == hash(reference)
    assert made.wire_size() == reference.wire_size()
    assert made.request_id == reference.request_id
    assert made.trace_id == reference.trace_id
    assert made.is_data == reference.is_data
    assert made.shard_checked == reference.shard_checked


@given(entries)
@settings(max_examples=200, deadline=None)
def test_entry_make_equivalent(reference):
    made = Entry.make(reference.term, reference.command, reference.ballot)
    assert made == reference
    assert made.wire_size() == reference.wire_size()
    assert made.copy() == reference.copy()


@given(
    term=st.integers(min_value=0, max_value=100),
    prev_index=st.integers(min_value=-1, max_value=1000),
    prev_term=st.integers(min_value=-2, max_value=100),
    batch=st.lists(entries, max_size=4),
    leader_commit=st.integers(min_value=-1, max_value=1000),
)
@settings(max_examples=100, deadline=None)
def test_append_entries_make_equivalent(term, prev_index, prev_term, batch,
                                        leader_commit):
    window = tuple(batch)
    reference = AppendEntries(
        term=term, leader="s0", prev_index=prev_index, prev_term=prev_term,
        entries=window, leader_commit=leader_commit)
    made = AppendEntries.make(
        term=term, leader="s0", prev_index=prev_index, prev_term=prev_term,
        entries=window, leader_commit=leader_commit)
    assert made == reference
    # The lazy memos start unset on both paths and agree once computed.
    assert made._size == reference._size == -1
    assert made._cpu is None and reference._cpu is None
    assert made.size_bytes() == reference.size_bytes()
    assert made.command_count() == reference.command_count()
    assert made.last_index == reference.last_index
    assert list(made.entry_batch()) == list(reference.entry_batch())


@given(
    term=st.integers(min_value=0, max_value=100),
    success=st.booleans(),
    match_index=st.integers(min_value=-1, max_value=1000),
    holders=st.frozensets(keys, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_append_reply_make_equivalent(term, success, match_index, holders):
    reference = AppendEntriesReply(
        term=term, follower="s1", success=success, match_index=match_index)
    made = AppendEntriesReply.make(term, "s1", success, match_index)
    assert made == reference
    assert made.size_bytes() == reference.size_bytes()
    assert made.lease_holders == frozenset()
    # The ack payload (PQL's granted lease holders) rides in `make` too.
    assert AppendEntriesReply.make(
        term, "s1", success, match_index, holders) == AppendEntriesReply(
        term=term, follower="s1", success=success, match_index=match_index,
        lease_holders=holders)


@given(batch=st.lists(entries, min_size=0, max_size=5),
       term=st.integers(min_value=0, max_value=10))
@settings(max_examples=100, deadline=None)
def test_host_envelope_make_equivalent(batch, term):
    items = tuple(
        MuxedMessage(src="a0", dst="b0", group=i % 2,
                     payload=AppendEntries(
                         term=term, leader="a0", prev_index=-1, prev_term=-1,
                         entries=(entry,), leader_commit=-1))
        for i, entry in enumerate(batch))
    reference = HostEnvelope(src_host="ha", dst_host="hb", items=items)
    made = HostEnvelope.make("ha", "hb", items)
    assert made == reference
    assert made._size == reference._size == -1
    assert made._dedup == reference._dedup == -1
    assert made.size_bytes() == reference.size_bytes()
    assert made.payload_dedup_bytes() == reference.payload_dedup_bytes()
    assert made.command_count() == reference.command_count()
    assert made.message_count() == reference.message_count()


def test_interned_heartbeat_equals_fresh_construction(cluster_factory):
    """The leader's reused empty-append skeleton is indistinguishable from
    what per-tick dataclass construction would have built, and IS reused
    (same object) while (term, prev, commit) hold still."""
    cluster = cluster_factory(RaftReplica)
    cluster.run_ms(400)  # settle leadership, several idle heartbeat ticks
    leader = cluster["s0"]
    assert leader.role.name == "LEADER"
    peer = leader.peers[0]
    state = leader._peer_state[peer]
    interned = state.empty_append
    assert interned is not None
    fresh = AppendEntries(
        term=leader.current_term, leader=leader.name,
        prev_index=interned.prev_index,
        prev_term=leader.term_at(interned.prev_index),
        entries=(), leader_commit=interned.leader_commit)
    assert interned == fresh
    assert interned.size_bytes() == fresh.size_bytes()
    # Force another idle heartbeat: the same object is reused.
    leader._send_append(peer, heartbeat=True)
    assert leader._peer_state[peer].empty_append is interned


def test_specialized_dispatch_matches_register_handler(cluster_factory):
    """For EVERY registered message type, the specialized
    `ReplicaBase._handle` invokes exactly the handler `register_handler`
    recorded — same routing as the generic Node._handle -> on_message
    chain — and both honor the liveness/incarnation guards."""
    cluster = cluster_factory(RaftReplica)
    replica = cluster["s1"]
    calls = []
    for message_type, registered in sorted(
            replica._handlers.items(), key=lambda kv: kv[0].__name__):
        probe = object.__new__(message_type)  # identity-only probe payload
        seen = []
        replica._handlers[message_type] = (
            lambda src, msg, seen=seen: seen.append((src, msg)))
        try:
            replica._handle("peer", probe, replica.incarnation)
            Node._handle(replica, "peer", probe, replica.incarnation)
        finally:
            replica._handlers[message_type] = registered
        assert seen == [("peer", probe), ("peer", probe)], message_type
        calls.append(message_type)
    assert calls  # the table is not empty
    # Guards: a stale incarnation or a dead replica drops the message on
    # the specialized path exactly as on the generic one.
    probe_type = calls[0]
    probe = object.__new__(probe_type)
    seen = []
    registered = replica._handlers[probe_type]
    replica._handlers[probe_type] = lambda src, msg: seen.append(msg)
    try:
        replica._handle("peer", probe, replica.incarnation - 1)
        alive = replica.alive
        replica.alive = False
        replica._handle("peer", probe, replica.incarnation)
        replica.alive = alive
    finally:
        replica._handlers[probe_type] = registered
    assert seen == []


def test_replica_handle_is_specialized_override():
    """ReplicaBase declares its own `_handle` (the dispatch the node's
    pre-bound `_handle_cb` resolves to at construction)."""
    assert "_handle" in ReplicaBase.__dict__
    assert ReplicaBase._handle is not Node._handle
