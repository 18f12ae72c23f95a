"""A JSON-valued command pays for its payload once (DESIGN.md §12).

The sender builds a `Payload` — the canonical text plus the frozen
structure it encodes — and every replica that applies the command reads
that structure through `payload_of` instead of parsing the text again;
results are encoded by the first replica that computes them and reused by
the others only after an equality check.  Everything here is counted
(`json.loads` / `json.dumps` calls, object identity), never timed — the
`tests/protocols/test_cost_scaling.py` idiom.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.store import KVStore
from repro.protocols.types import Command, OpType, Payload, payload_of
from repro.shard.txn import TxnCluster, TxnSpec
from repro.workload.ycsb import WorkloadConfig

REPLICAS = 5


class JsonCalls:
    """Counts every JSON decode (`loads`) and encode (`dumps`) made while
    active, whoever makes it: `json.loads` / `json.dumps` and an encoder
    object kept by a module all go through these two methods."""

    def __init__(self, monkeypatch) -> None:
        self.loads = self.dumps = 0
        decode = json.JSONDecoder.decode
        iterencode = json.JSONEncoder.iterencode

        def counted_decode(decoder, *args, **kwargs):
            self.loads += 1
            return decode(decoder, *args, **kwargs)

        def counted_iterencode(encoder, *args, **kwargs):
            self.dumps += 1
            return iterencode(encoder, *args, **kwargs)

        monkeypatch.setattr(json.JSONDecoder, "decode", counted_decode)
        monkeypatch.setattr(json.JSONEncoder, "iterencode", counted_iterencode)


def small_txn_cluster(**overrides) -> TxnCluster:
    spec = dict(protocol="raft", num_shards=2, placement="colocated",
                coalesce=True, clients_per_region=0, txn_size=2,
                cross_shard_ratio=0.25,
                workload=WorkloadConfig(read_fraction=0.3, conflict_rate=0.0,
                                        value_size=8, records=400),
                duration_s=3.0, warmup_s=0.5, cooldown_s=0.5, seed=5)
    spec.update(overrides)
    return TxnCluster(TxnSpec(**spec))


def key_on(cluster, shard: int, start: int = 0) -> str:
    return next(f"k{i}" for i in range(start, start + 10_000)
                if cluster.partitioner.shard_of(f"k{i}") == shard)


def coordinator_steps(cluster, txn_id="c_x:1"):
    """One cross-shard transaction's commands exactly as a `TxnCoordinator`
    builds them: ({shard: prepare}, {shard: commit}, home shard).  The
    home shard's commit carries the decision record."""
    coordinator = cluster.coordinators[0]
    key0, key1 = key_on(cluster, 0), key_on(cluster, 1)
    coordinator._start_attempt(
        txn_id, None, [("put", key0, "v0"), ("get", key1, None)], ts=100)
    state = coordinator._active[txn_id]
    prepares = dict(state.pending)
    coordinator._bind(state, "commit")
    commits = dict(state.pending)
    coordinator._release_rest(state)
    commits.update(state.pending)
    return prepares, commits, state.home


def sweep_abort(cluster, txn_id="c_x:9"):
    """A recovery sweep's home `TXN_ABORT` (carrying the abort decision)
    for one attempt, as the coordinator builds it."""
    coordinator = cluster.coordinators[0]
    key0, key1 = key_on(cluster, 0), key_on(cluster, 1)
    coordinator._start_attempt(
        txn_id, None, [("put", key0, "v0"), ("get", key1, None)], ts=100)
    state = coordinator._active[txn_id]
    coordinator._bind(state, "abort")
    return state.pending[state.home]


def plain(command: Command) -> Command:
    """The same command as someone building it by hand would: the value is
    an ordinary string, no structure attached."""
    text = str(command.value)
    assert type(text) is str
    return dataclasses.replace(command, value=text)


# -- (a) counted: nothing is parsed per replica, results encoded once ---------


def test_coordinator_built_2pc_steps_cost_no_loads_and_one_dump_per_result(
        monkeypatch):
    cluster = small_txn_cluster()
    prepares, commits, home = coordinator_steps(cluster)
    decide = sweep_abort(cluster)
    groups = {shard: [KVStore() for _ in range(REPLICAS)] for shard in prepares}
    calls = JsonCalls(monkeypatch)

    results = []
    for shard, stores in groups.items():
        results.append([store.apply(prepares[shard]) for store in stores])
    for shard, stores in groups.items():
        results.append([store.apply(commits[shard]) for store in stores])
    results.append([store.apply(decide) for store in groups[home]])

    assert calls.loads == 0
    # Distinct results: one vote per participant group; the phase-2 acks
    # (the home's binding commit and the sweep's binding abort too) are a
    # constant and cost nothing.
    assert calls.dumps <= len(prepares)
    for per_group in results:
        # ...and the five replicas of a group hand out one shared answer.
        assert all(result is per_group[0] for result in per_group)
    assert json.loads(results[0][0].value)["vote"] == "yes"
    assert all(per_group[0].value == '{"done": true}'
               for per_group in results[2:])
    for stores in groups.values():
        assert all(store.locked_keys() == {} for store in stores)
    # The home shard bound the decisions its commit and abort carried.
    decisions = groups[home][0]._decisions
    assert decisions[payload_of(commits[home])["handle"]][
        "outcome"] == "commit"
    assert decisions[payload_of(decide)["handle"]]["outcome"] == "abort"


def test_phase2_steps_are_charged_their_value_bytes():
    """The home shard's phase-2 step carries the whole decision record
    (handle, txn, participants, reads, home keys): its wire size counts
    that value, as a prepare's counts its operation list.  Charged only
    its key, it cost 50 bytes on the wire."""
    cluster = small_txn_cluster()
    prepares, commits, home = coordinator_steps(cluster)
    step = commits[home]
    assert step.value_size == len(step.value) == 151
    assert step.wire_size() == 24 + len(step.key) + 151 == 201
    for shard, command in commits.items():
        assert command.wire_size() == (24 + len(command.key)
                                       + command.value_size)
    abort = sweep_abort(cluster)
    assert abort.wire_size() == 24 + len(abort.key) + abort.value_size


def test_readless_replies_are_one_shared_result():
    """A write-only `TXN`'s reply and a write-only prepare's yes vote hold
    nothing per transaction: every one is the same shared result, not a
    fresh one that its command's memo keeps alive as long as the log — and
    its text is exactly what a fresh encoding gives."""
    store = KVStore()
    writes = [store.apply(Command(op=OpType.TXN, key=key, client_id="c",
                                  seq=seq, value=Payload(
                                      {"ops": [["put", key, "w"]]})))
              for seq, key in enumerate("ab", start=1)]
    votes = [store.apply(_prepare(f"t:{i}#co.1.1", [("put", f"k{i}", "w")],
                                  ts=i)) for i in (1, 2)]
    assert writes[0] is writes[1]
    assert votes[0] is votes[1]
    assert writes[0].value == json.dumps({"reads": {}}, sort_keys=True)
    assert votes[0].value == json.dumps({"vote": "yes", "reads": {}},
                                        sort_keys=True)


def test_full_run_json_calls_per_committed_txn_stay_in_budget(monkeypatch):
    """A whole small `TxnCluster` run: the JSON calls left are one encode
    per payload built and one per distinct reply, and no decode at all (a
    reply is a `Payload` too: its receiver reads it undecoded).  The budget
    is a quarter of what the parse-per-replica idiom made on this same run
    (33.0 per committed transaction — 3,001 decodes + 2,148 encodes for
    156 — on the parent of the change that introduced `Payload`; 4.8
    after it)."""
    cluster = small_txn_cluster(clients_per_region=2)
    calls = JsonCalls(monkeypatch)
    result = cluster.run()
    assert result.safe and result.commits_2pc > 0
    per_txn = (calls.loads + calls.dumps) / result.committed_total
    assert per_txn <= 8.0, (calls.loads, calls.dumps, result.committed_total)
    assert calls.loads == 0


# -- (b) no aliasing: the shared record is never changed, and cannot be -------

_KEYS = st.sampled_from([f"k{i}" for i in range(6)])
_OPS = st.lists(
    st.one_of(st.tuples(st.just("get"), _KEYS, st.none()),
              st.tuples(st.just("put"), _KEYS, st.text(max_size=4))),
    min_size=1, max_size=5)


def _prepare(handle: str, ops, ts: int, seq: int = 1) -> Command:
    value = Payload({"handle": handle, "txn": handle.split("#")[0],
                     "coord": "co", "inc": 0, "ts": ts, "ops": ops,
                     "participants": [0, 1], "home": 0})
    return Command(op=OpType.TXN_PREPARE, key=f"txn:{handle}", value=value,
                   client_id=f"__txn__:{handle}", seq=seq,
                   value_size=len(value))


def _finish(handle: str, op: OpType, seq: int) -> Command:
    value = Payload({"handle": handle})
    return Command(op=op, key=f"txn:{handle}", value=value,
                   client_id=f"__txn__:{handle}", seq=seq,
                   value_size=len(value))


def thaw(node):
    """A frozen payload structure as `json.loads` would have built it."""
    if isinstance(node, dict):
        return {key: thaw(value) for key, value in node.items()}
    return [thaw(item) for item in node] if isinstance(node, tuple) else node


def _mutations(record):
    yield lambda: record.__setitem__("ops", [])
    yield lambda: record.__delitem__("handle")
    yield lambda: record.update(extra=1)
    yield lambda: record.setdefault("extra", 1)
    yield lambda: record.pop("handle")
    yield lambda: record.clear()
    ops = record["ops"]
    # JSON arrays are carried as tuples: nothing to call, nothing to assign.
    yield lambda: ops.append(["get", "k0", None])
    yield lambda: ops.sort()
    yield lambda: ops.__setitem__(0, None)
    yield lambda: ops[0].__setitem__(2, "other")
    yield lambda: ops[0].pop()
    yield lambda: ops[0].__delitem__(0)


@settings(max_examples=40, deadline=None)
@given(first=_OPS, second=_OPS, single=_OPS)
def test_shared_records_survive_five_stores_unchanged(first, second, single):
    commands = [
        Command(op=OpType.TXN, key=single[0][1],
                value=Payload({"ops": single}), client_id="c", seq=1),
        _prepare("t:1#co.1.1", first, ts=10),
        _prepare("t:2#co.1.2", second, ts=20),       # may conflict: wait/die
        _finish("t:1#co.1.1", OpType.TXN_COMMIT, seq=2),
        _finish("t:2#co.1.2", OpType.TXN_ABORT, seq=2),
        Command(op=OpType.TXN, key=single[0][1],
                value=Payload({"ops": single}), client_id="c", seq=2),
    ]
    stores = [KVStore() for _ in range(REPLICAS)]
    for command in commands:
        for store in stores:
            store.apply(command)
    assert len({store.digest() for store in stores}) == 1
    for command in commands:
        record = payload_of(command)
        assert record is command.value.data
        # deep-equal to a fresh parse of its own text (arrays ride as
        # tuples, `thaw` turns them back), and re-encodes to exactly it
        assert thaw(record) == json.loads(str(command.value))
        assert json.dumps(record, sort_keys=True) == command.value


def test_every_attempt_to_mutate_a_shared_record_raises():
    command = _prepare("t:1#co.1.1", [("put", "a", "v"), ("get", "b", None)],
                       ts=10)
    record = payload_of(command)
    before = json.dumps(record, sort_keys=True)
    attempts = list(_mutations(record))
    for attempt in attempts:
        with pytest.raises((TypeError, AttributeError)):
            attempt()
    with pytest.raises(TypeError):
        command.value.data = {}
    with pytest.raises(TypeError):
        del command.value.data
    assert json.dumps(record, sort_keys=True) == before == command.value


def test_payload_is_a_private_copy_of_what_the_sender_held():
    reads = {"a": "1"}
    ops = [["get", "a", None]]
    value = Payload({"reads": reads, "ops": ops})
    reads["b"] = "2"            # the coordinator keeps using its own dicts
    ops[0][2] = "changed"
    assert value.data == {"reads": {"a": "1"}, "ops": (("get", "a", None),)}
    assert thaw(value.data) == json.loads(value)


def test_payload_refuses_keys_json_would_rewrite():
    # {1: ...} encodes as {"1": ...}: text and structure would disagree.
    with pytest.raises(TypeError):
        Payload({"sessions": {1: "x"}})


def test_payload_text_is_what_a_plain_value_would_be():
    data = {"b": [1, (2, None)], "a": {"x": "é"}}
    value = Payload(data)
    text = json.dumps(data, sort_keys=True)
    assert value == text and hash(value) == hash(text)
    assert len(value) == len(text)
    assert json.dumps({"v": value}) == json.dumps({"v": text})
    assert type(str(value)) is str


# -- (c) divergence is not masked ---------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: Command(op=OpType.TXN, key="a", client_id="c", seq=1,
                    value=Payload({"ops": [["get", "a", None],
                                           ["put", "b", "w"]]})),
    lambda: _prepare("t:1#co.1.1", [("get", "a", None), ("put", "b", "w")],
                     ts=10),
], ids=["txn", "txn_prepare"])
def test_a_diverged_replica_answers_with_its_own_reads(make):
    command = make()
    stores = [KVStore() for _ in range(REPLICAS)]
    for store in stores:
        store.apply(Command(op=OpType.PUT, key="a", value="agreed",
                            client_id="w", seq=1))
    # Replica 2's table was perturbed before the transaction applies.
    stores[2]._table["a"] = "diverged"
    results = [store.apply(command) for store in stores]
    assert json.loads(results[2].value)["reads"] == {"a": "diverged"}
    agreeing = [result for i, result in enumerate(results) if i != 2]
    assert all(result is agreeing[0] for result in agreeing)
    assert json.loads(agreeing[0].value)["reads"] == {"a": "agreed"}
    # ...and exactly what a parse-and-encode-per-replica store would say.
    lone = KVStore()
    lone._table["a"] = "diverged"
    assert lone.apply(plain(command)).value == results[2].value


def test_first_answer_wrong_does_not_poison_the_rest():
    command = _prepare("t:1#co.1.1", [("get", "a", None)], ts=10)
    stores = [KVStore() for _ in range(REPLICAS)]
    stores[0]._table["a"] = "diverged"     # the FIRST to answer is the odd one
    results = [store.apply(command) for store in stores]
    assert json.loads(results[0].value)["reads"] == {"a": "diverged"}
    for result in results[1:]:
        assert json.loads(result.value)["reads"] == {"a": None}


# -- (d) a hand-built command behaves exactly as a coordinator-built one ------


def fields_of(result):
    return (result.ok, result.value, result.wrong_shard, result.conflict)


def _observe(store: KVStore):
    return (store.digest(), store.locked_keys(), store.prepared_handles(),
            store.applied_count,
            json.dumps(store._decisions, sort_keys=True),
            json.dumps(store._txn_commits, sort_keys=True))


def test_hand_built_commands_match_coordinator_built_ones():
    cluster = small_txn_cluster()
    prepares, commits, home = coordinator_steps(cluster)
    decide = sweep_abort(cluster)
    client = Command(op=OpType.TXN, key="a", client_id="c_manual", seq=1,
                     value=Payload({"ops": [["put", "a", "1"],
                                            ["get", "a", None]]}))
    sequence = [client, prepares[home], prepares[home], commits[home],
                decide, commits[home], client]
    built, by_hand = KVStore(), KVStore()
    for command in sequence:
        ours, theirs = built.apply(command), by_hand.apply(plain(command))
        assert fields_of(ours) == fields_of(theirs)
        assert _observe(built) == _observe(by_hand)

    # ...and after a catch-up snapshot: retries are answered from the
    # restored dedup windows, new commands apply, identically.
    restored_built, restored_by_hand = KVStore(), KVStore()
    restored_built.install_full(json.loads(json.dumps(built.export_full())))
    restored_by_hand.install_full(
        json.loads(json.dumps(by_hand.export_full())))
    later = dataclasses.replace(prepares[home], seq=prepares[home].seq + 50)
    for command in [client, decide, commits[home], later]:
        ours = restored_built.apply(command)
        theirs = restored_by_hand.apply(plain(command))
        assert fields_of(ours) == fields_of(theirs)
        assert _observe(restored_built) == _observe(restored_by_hand)


def test_payload_of_decodes_plain_strings_on_the_spot():
    assert payload_of(Command(op=OpType.TXN, value='{"ops": []}')) == {"ops": []}
    assert payload_of(Command(op=OpType.TXN_COMMIT)) == {}
    sliced = Payload({"handle": "h"})[:]      # any str operation drops `data`
    assert payload_of(Command(op=OpType.TXN_COMMIT, value=sliced)) == {
        "handle": "h"}


# -- (e) TXN_RECOVER's reply text ---------------------------------------------

#: The reply a store gives to the recovery sweep of `recover_scenario`
#: below.  First captured before payloads were shared; re-captured when the
#: home shard's `TXN_COMMIT` began binding the decision it carries, which
#: releases the committed handle, so only the undecided one is reported
#: prepared; and again when the report stopped carrying the logged
#: decisions (the committed handle's record stays in the home log alone).
PINNED_RECOVER_REPLY = (
    '{"prepared": [{"coord": "txnco_oregon", "handle": '
    '"c_x:1#txnco_oregon.1.1", "home": 0, "inc": 1, '
    '"ops": [["put", "K0", "v0"]], "participants": [0, 1], "reads": {}, '
    '"ts": 100, "txn": "c_x:1"}]}')


def recover_scenario():
    """A coordinator crashes holding two attempts on the home shard: one
    prepared and undecided, one committed whose home `TXN_COMMIT` bound
    the decision record (and installed) while the other participant's
    commit was never sent.  Returns (commands applied before the crash,
    the janitor's TXN_RECOVER for the home shard, key renaming)."""
    cluster = small_txn_cluster()
    coordinator = cluster.coordinators[0]
    key0, key1 = key_on(cluster, 0), key_on(cluster, 1)
    key0b = key_on(cluster, 0, start=int(key0[1:]) + 1)
    coordinator._start_attempt("c_x:1", None,
                               [("put", key0, "v0"), ("put", key1, "v1")],
                               ts=100)
    undecided = coordinator._active["c_x:1"].pending[0]
    coordinator._start_attempt("c_x:2", None,
                               [("put", key0b, "w0"), ("get", key1, None)],
                               ts=200)
    state = coordinator._active["c_x:2"]
    prepared = state.pending[0]
    state.reads = {key1: None}
    coordinator._bind(state, "commit")
    bound = state.pending[0]
    janitor = cluster.coordinators[1]
    janitor._begin_sweep(coordinator.name, 2)
    (sweep,) = janitor._sweeps.values()
    names = {key0: "K0", key0b: "K0b", key1: "K1"}
    return [undecided, prepared, bound], sweep.pending[0], names


def test_recover_reply_text_is_byte_equal_to_the_pinned_text():
    before_crash, recover, names = recover_scenario()
    assert payload_of(before_crash[0])["coord"] == "txnco_oregon"
    store = KVStore()
    for command in before_crash:
        assert store.apply(command).ok
    reply = store.apply(recover).value
    for key, name in names.items():
        reply = reply.replace(f'"{key}"', f'"{name}"')
    assert reply == PINNED_RECOVER_REPLY
    # Hand-built (plain string) commands give the same text, and a second
    # replica shares the first one's answer.
    by_hand, second = KVStore(), KVStore()
    for command in before_crash:
        by_hand.apply(plain(command))
        second.apply(command)
    assert by_hand.apply(plain(recover)).value == store.apply(recover).value
    assert second.apply(recover) is store.apply(recover)


# -- the lock table is edited in place ----------------------------------------


def test_finish_releases_exactly_the_handles_keys_in_place():
    store = KVStore()
    store.apply(_prepare("t:1#co.1.1", [("put", "a", "1"), ("get", "b", None),
                                        ("put", "a", "2")], ts=10))
    store.apply(_prepare("t:2#co.1.2", [("put", "c", "3")], ts=20))
    locks = store._locks
    assert store.locked_keys() == {"a": "t:1#co.1.1", "b": "t:1#co.1.1",
                                   "c": "t:2#co.1.2"}
    store.apply(_finish("t:1#co.1.1", OpType.TXN_COMMIT, seq=2))
    # Same dict, minus this handle's keys: no rebuild over every held lock.
    assert store._locks is locks
    assert store.locked_keys() == {"c": "t:2#co.1.2"}
    assert store.lock_count == 1
    store.apply(_finish("t:2#co.1.2", OpType.TXN_ABORT, seq=2))
    assert store._locks is locks and store.locked_keys() == {}
    assert store.prepared_handles() == []
    # A finish for an unknown (already finished) handle stays a no-op.
    assert store.apply(_finish("t:1#co.1.1", OpType.TXN_COMMIT, seq=3)).ok
