"""Per-message size memoization.

Every hot-path message memoizes its wire size per instance, so the three
charging sites — the CPU cost model (`NodeCosts.cost`), the network's
serialization estimate (`payload_size_bytes`), and the mux envelope sum —
all read ONE cached number instead of re-walking the entry batch.  A
`HostEnvelope` is one more such message: one header plus its inner sizes."""

import pytest

from repro.protocols.messages import (
    HEADER_BYTES,
    Accept,
    AppendEntries,
    CatchUpSnapshot,
    ClientReply,
    ClientRequest,
    ForwardBatch,
    HostBeacon,
    HostEnvelope,
    Learn,
    MenciusAck,
    MenciusAppend,
    MenciusPromise,
    MenciusState,
    MuxedMessage,
    Promise,
    ReplyRelay,
    RequestVoteReply,
    ShardMap,
    SkipNotice,
    TxnReply,
    TxnRequest,
)
from repro.protocols.types import Ballot, Command, Entry, OpType
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.node import Node, NodeCosts, payload_size_bytes
from repro.sim.topology import symmetric_lan


def _entry(key: str, seq: int = 0, command: Command = None) -> Entry:
    if command is None:
        command = Command(op=OpType.PUT, key=key, value="v",
                          client_id="c", seq=seq)
    return Entry(term=1, command=command, ballot=1)


def _append(entries) -> AppendEntries:
    return AppendEntries(term=1, leader="r_a", prev_index=-1, prev_term=-1,
                         entries=tuple(entries), leader_commit=-1)


def test_size_computed_once_across_all_charging_sites(monkeypatch):
    calls = {"n": 0}
    real = Entry.wire_size

    def counting(self):
        calls["n"] += 1
        return real(self)

    monkeypatch.setattr(Entry, "wire_size", counting)
    message = _append([_entry("k1", 1), _entry("k2", 2), _entry("k3", 3)])

    cost = NodeCosts().cost(message)          # CPU charge
    size_net = payload_size_bytes(message)    # network serialization
    size_msg = message.size_bytes()           # direct / envelope sum

    assert cost > 0
    assert size_net == size_msg == HEADER_BYTES + 3 * real(_entry("k1"))
    # Three entries, each walked exactly once across all three sites.
    assert calls["n"] == 3


def test_memo_is_per_instance():
    small = _append([_entry("k")])
    big = _append([_entry("k%d" % i, i) for i in range(4)])
    assert small.size_bytes() < big.size_bytes()
    # Re-reads return the cached values unchanged.
    assert small.size_bytes() == small.size_bytes()
    assert big.size_bytes() == big.size_bytes()


def _command(key: str, seq: int, value: str = "v" * 10) -> Command:
    return Command(op=OpType.PUT, key=key, value=value, client_id="c",
                   seq=seq)


_E1 = Entry(term=1, command=_command("k1", 1), ballot=1)
_E2 = Entry(term=1, command=_command("key2", 2), ballot=1)

#: Every memoized message class with a fixed instance and its wire size.
SIZED = [
    (lambda: ClientRequest(command=_command("k1", 1)), 82),
    (lambda: ClientReply(request_id=("c", 1), ok=True, value="x",
                         value_size=12,
                         shard_map=ShardMap(epoch=2, num_shards=4)), 76),
    (lambda: TxnRequest(client="c", txn_seq=1, ts=5,
                        ops=[("put", "k1", "abc"), ("get", "k22", None)]),
     104),
    (lambda: TxnReply(client="c", txn_seq=1, ok=True, committed=True,
                      reads={"k2": "vv", "k3": None}), 66),
    (lambda: ForwardBatch(origin="s1", commands=[
        _command("k1", 1), _command("key2", 2, "w")]), 118),
    (lambda: ReplyRelay(replies=[
        ClientReply(request_id=("c", 1), ok=True),
        ClientReply(request_id=("c", 2), ok=True, value_size=100)]), 252),
    (lambda: RequestVoteReply(term=2, voter="s1", granted=True,
                              extra_entries={3: _E1}), 98),
    (lambda: _append([_E1, _E2]), 150),
    (lambda: Promise(ballot=Ballot(1, "s0"), acceptor="s1",
                     instances={0: _E1, 1: _E2}, log_tail=2), 150),
    (lambda: Accept(ballot=Ballot(1, "s0"), proposer="s0",
                    instances={0: _command("k1", 1)}, commit_index=-1), 82),
    (lambda: CatchUpSnapshot(sender="s0", entries=(_E1, _E2),
                             commit_index=1), 150),
    (lambda: MenciusAppend(sender="s0", owner="s0", ballot=0,
                           items={0: _E1, 5: _E2}, next_own=10, since=0,
                           committed=[(0, 0), (5, 0)]), 158),
    (lambda: MenciusState(items={0: (_E1, "committed"),
                                 1: (_E2, "skipped")}), 150),
    (lambda: MenciusPromise(ballot=1, acceptor="s1", owner="s0",
                            accepted={0: _E1}), 98),
]


@pytest.mark.parametrize("make,size", SIZED,
                         ids=[type(make()).__name__ for make, _ in SIZED])
def test_size_bytes_pinned(make, size):
    message = make()
    assert message.size_bytes() == size
    # The second read is the memo, and the network reads it directly.
    assert message.size_bytes() == message._size == size


def test_envelope_charges_header_plus_inner_sizes():
    # Equal content, same command object or not: every inner message keeps
    # its full size, and the envelope adds one header and its beacon.
    shared = _command("same", 1)
    msg_a = _append([_entry("same", command=shared)])
    msg_b = _append([_entry("same", command=shared)])
    beacon = HostBeacon(src_host="h1", beats={0: ("g0_r_a", 1)})
    envelope = HostEnvelope(
        src_host="h1", dst_host="h2",
        items=(MuxedMessage("g0_r_a", "g0_r_b", 0, msg_a),
               MuxedMessage("g1_r_a", "g1_r_b", 1, msg_b)),
        beacon=beacon)
    assert envelope.size_bytes() == envelope._size == (
        HEADER_BYTES + msg_a.size_bytes() + msg_b.size_bytes()
        + beacon.size_bytes())


# -- CPU-cost memo: anything that reaches more than one receiver -------------


class _Peer(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = []

    def on_message(self, src, message):
        self.handled.append((self.sim.now, message))


def _fan_out(message, costs_of, monkeypatch):
    """Send ONE `message` object from s0 to s1..s4; return the number of
    `NodeCosts.cost` computations and the peers."""
    sim = Simulator()
    network = Network(sim, symmetric_lan(5))
    peers = [_Peer(f"s{i}", sim, network, costs=costs_of(i)) for i in range(5)]
    calls = []
    real = NodeCosts.cost

    def counting(self, msg):
        calls.append(msg)
        return real(self, msg)

    monkeypatch.setattr(NodeCosts, "cost", counting)
    for peer in peers[1:]:
        network.send("s0", peer.name, message)
    sim.run()
    assert all(len(peer.handled) == 1 for peer in peers[1:])
    return len(calls), peers


def _mencius_append() -> MenciusAppend:
    return MenciusAppend(sender="s0", owner="s0", ballot=0,
                         items={0: _entry("k", 1), 5: _entry("k2", 2)},
                         next_own=10, since=0, committed=[(0, 0)])


FANNED_OUT = [
    _mencius_append,
    lambda: SkipNotice(owner="s0", below=10, since=0),
    lambda: Learn(ballot=Ballot(1, "s0"), proposer="s0", commit_index=3),
    lambda: Accept(ballot=Ballot(1, "s0"), proposer="s0",
                   instances={0: _entry("k").command}, commit_index=-1),
    # MultiPaxos's idle keepalive: one empty Accept per tick, sent to every
    # peer.
    lambda: Accept(ballot=Ballot(1, "s0"), proposer="s0", instances={},
                   commit_index=3),
    # Mencius commit news with nothing to propose: a commit-only flush.
    lambda: MenciusAppend(sender="s0", owner="s0", ballot=0, items={},
                          next_own=10, since=5, committed=[(0, 0), (5, 7)]),
]


@pytest.mark.parametrize("make", FANNED_OUT)
def test_fanned_out_message_is_costed_once_per_cost_table(make, monkeypatch):
    shared = NodeCosts()
    message = make()
    computed, peers = _fan_out(message, lambda i: shared, monkeypatch)
    assert computed == 1
    expected = NodeCosts().cost(make())
    # Every receiver was still charged the full cost on its own CPU.
    assert [peer.host.cpu_busy_us for peer in peers[1:]] == [expected] * 4
    assert message._cpu == (shared, expected)


def test_cost_memo_is_per_cost_table(monkeypatch):
    """A message crossing cost tables is recomputed under each one — the
    memo answers only for the table that wrote it."""
    tables = [NodeCosts(per_message=10 * (i + 1)) for i in range(5)]
    computed, peers = _fan_out(_mencius_append(), lambda i: tables[i],
                               monkeypatch)
    assert computed == 4
    busy = [peer.host.cpu_busy_us for peer in peers[1:]]
    assert busy == sorted(busy) and len(set(busy)) == 4


def test_point_to_point_message_carries_no_cost_memo(monkeypatch):
    """Built per send and delivered once: nothing to amortize, no slot.
    A Raft leader builds an `AppendEntries` per peer, heartbeats included."""
    ack = MenciusAck(acker="s1", ballot=0, indexes=[0], next_own=6, since=1)
    for message in (ack, _append([_entry("k")])):
        assert not hasattr(message, "_cpu")
        computed, _ = _fan_out(message, lambda i: NodeCosts(), monkeypatch)
        assert computed == 4
