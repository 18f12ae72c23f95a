"""KV store state machine."""

import dataclasses
import json

from hypothesis import given, strategies as st

from repro.kvstore.store import KVStore
from repro.protocols.types import Command, OpType
from repro.shard.partition import HASH_SPACE, key_point


def put(key, value, client="c", seq=1, ):
    return Command(op=OpType.PUT, key=key, value=value, client_id=client, seq=seq)


def get(key, client="c", seq=1):
    return Command(op=OpType.GET, key=key, client_id=client, seq=seq)


def test_put_then_get():
    store = KVStore()
    store.apply(put("k", "v", seq=1))
    assert store.apply(get("k", seq=2)).value == "v"


def test_get_missing_returns_none():
    store = KVStore()
    assert store.apply(get("k")).value is None


def test_duplicate_seq_not_reapplied():
    store = KVStore()
    store.apply(put("k", "v1", seq=1))
    store.apply(put("k", "v2", seq=2))
    result = store.apply(put("k", "v1", seq=1))  # replay of an old write
    assert store.read_local("k") == "v2"
    assert result.ok


def test_duplicate_returns_original_result():
    store = KVStore()
    store.apply(put("k", "v", seq=1))
    first = store.apply(get("k", seq=2))
    store.apply(put("k", "w", client="other", seq=1))
    replay = store.apply(get("k", seq=2))
    assert replay.value == first.value == "v"


def test_version_counts_writes():
    store = KVStore()
    assert store.version("k") == 0
    store.apply(put("k", "a", seq=1))
    store.apply(put("k", "b", seq=2))
    assert store.version("k") == 2


def test_nop_applies_to_nothing():
    from repro.protocols.types import NOP
    store = KVStore()
    assert store.apply(NOP).ok
    assert len(store) == 0
    assert store.applied_count == 0


def test_clients_tracked_independently():
    store = KVStore()
    store.apply(put("k", "a", client="c1", seq=5))
    store.apply(put("k", "b", client="c2", seq=1))
    assert store.read_local("k") == "b"
    assert store.version("k") == 2


def test_snapshot_is_copy():
    store = KVStore()
    store.apply(put("k", "v", seq=1))
    snap = store.snapshot()
    snap["k"] = "tampered"
    assert store.read_local("k") == "v"


# -- at-most-once vs ownership (the reshard-critical ordering) ---------------


def test_duplicate_after_ownership_loss_returns_cached_result():
    """Regression: the (client, seq) dedup check must run BEFORE the
    ownership filter.  A retried command whose original already applied,
    but whose key has since migrated away, must return the cached result —
    the pre-fix order returned ok=False, counted a filter hit, and made
    the client re-route and double-execute on the new owner."""
    store = KVStore()
    first = store.apply(put("k", "v", seq=1))
    assert first.ok
    store.set_key_filter(lambda key: False)  # the key's range migrated away
    replay = store.apply(put("k", "v", seq=1))
    assert replay.ok
    assert not replay.wrong_shard
    assert store.filtered_count == 0
    assert store.applied_count == 1  # not re-executed


def test_unowned_command_rejected_with_wrong_shard_marker():
    store = KVStore(key_filter=lambda key: False)
    result = store.apply(put("k", "v", seq=1))
    assert not result.ok
    assert result.wrong_shard
    assert store.filtered_count == 1
    # Not recorded for dedup: once this store imports the range (or the
    # client re-routes), the retry must actually apply.
    assert store.apply(get("k", seq=1)).wrong_shard


# -- range export / import (live resharding) ---------------------------------


def migrate_in(payload, seq, client="__reshard__"):
    value = json.dumps(payload)
    return Command(op=OpType.MIGRATE_IN, key="reshard:in", value=value,
                   client_id=client, seq=seq, value_size=len(value))


def test_export_import_moves_records_and_dedup_state():
    donor = KVStore()
    donor.apply(put("k", "v", client="c", seq=7))
    point = key_point("k")
    export = donor.export_range(point, point + 1)
    assert donor.read_local("k") is None
    assert export["table"] == {"k": "v"}
    assert export["versions"] == {"k": 1}
    assert "c" in export["sessions"]

    recipient = KVStore()
    recipient.import_range(export)
    assert recipient.read_local("k") == "v"
    assert recipient.version("k") == 1
    # The dedup state travelled: the retried original is answered from
    # cache, not re-executed.
    replay = recipient.apply(put("k", "v", client="c", seq=7))
    assert replay.ok
    assert recipient.version("k") == 1


def test_single_shard_txn_dedup_slot_moves_with_its_routing_key():
    """A single-shard `TXN` whose reply was lost, retried after its range
    moved: the client re-routes by the command's key, so the slot must
    travel with that key's range, or the recipient re-executes it."""
    donor = KVStore()
    txn = Command(op=OpType.TXN, key="k",
                  value=json.dumps({"ops": [["put", "k", "v"]]}),
                  client_id="c", seq=3)
    assert donor.apply(txn).ok
    point = key_point("k")
    recipient = KVStore()
    recipient.import_range(donor.export_range(point, point + 1))
    assert recipient.apply(txn).ok
    assert recipient.version("k") == 1


def test_export_leaves_unrelated_state():
    store = KVStore()
    store.apply(put("k", "v", client="c1", seq=1))
    store.apply(put("q", "w", client="c2", seq=1))
    point = key_point("k")
    store.export_range(point, point + 1)
    assert store.read_local("q") == "w"
    # c2's dedup entry stayed (its last key did not move)
    assert store.apply(put("q", "x", client="c2", seq=1)).ok
    assert store.version("q") == 1


def test_import_merges_windows_without_regressing():
    recipient = KVStore()
    recipient.apply(put("k2", "x", client="c", seq=10))
    # An older one-entry window (floor just below its only slot), as a
    # retried MIGRATE_IN of an earlier export would deliver it.
    stale = {"table": {}, "versions": {},
             "sessions": {"c": {"low_water": 2,
                                "entries": {"3": ["k", True, None]}}}}
    recipient.import_range(stale)
    # The imported slot answers its own seq from cache...
    assert recipient.apply(put("k", "y", client="c", seq=3)).ok
    assert recipient.version("k") == 0
    # ...seqs at or below the imported floor are acked duplicates...
    assert recipient.apply(put("k", "z", client="c", seq=2)).ok
    assert recipient.version("k") == 0
    # ...and the store's own newer slot survived the merge.
    assert recipient.apply(put("k2", "w", client="c", seq=10)).ok
    assert recipient.read_local("k2") == "x"


def test_import_duplicate_is_idempotent():
    donor = KVStore()
    donor.apply(put("k", "v", client="c", seq=7))
    export = donor.export_range(0, HASH_SPACE)
    recipient = KVStore()
    recipient.import_range(export)
    recipient.import_range(export)  # a retried MIGRATE_IN delivers twice
    assert recipient.apply(put("k", "v", client="c", seq=7)).ok
    assert recipient.version("k") == 1  # original not re-executed


def test_migrate_commands_through_apply_are_deduplicated():
    donor = KVStore()
    donor.apply(put("k", "v", client="c", seq=1))
    point = key_point("k")
    value = json.dumps({"lo": point, "hi": point + 1, "epoch": 1,
                        "num_shards": 2})
    out = Command(op=OpType.MIGRATE_OUT, key="reshard:x", value=value,
                  client_id="__reshard__", seq=1)
    first = donor.apply(out)
    assert first.ok and json.loads(first.value)["table"] == {"k": "v"}
    # A retried MIGRATE_OUT (lost reply) returns the SAME snapshot from the
    # dedup cache instead of re-exporting a now-empty range.
    retry = donor.apply(out)
    assert retry.value == first.value

    recipient = KVStore()
    payload = json.loads(first.value)
    result = recipient.apply(migrate_in(payload, seq=2))
    assert result.ok
    assert recipient.read_local("k") == "v"
    # Duplicate import: idempotent via dedup.
    assert recipient.apply(migrate_in(payload, seq=2)).ok
    assert recipient.version("k") == 1


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.text(min_size=1, max_size=3)), max_size=30))
def test_store_matches_model_dict(ops):
    """Property: with unique seqs, the store behaves like a plain dict."""
    store = KVStore()
    model = {}
    for seq, (key, value) in enumerate(ops, start=1):
        store.apply(put(key, value, seq=seq))
        model[key] = value
    assert store.snapshot() == model


@given(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=30))
def test_replays_idempotent(seqs):
    """Property: applying any sequence twice equals applying it once."""
    once = KVStore()
    twice = KVStore()
    for seq in seqs:
        once.apply(put("k", f"v{seq}", seq=seq))
    for seq in seqs + seqs:
        twice.apply(put("k", f"v{seq}", seq=seq))
    assert once.snapshot() == twice.snapshot()
    assert once.version("k") == twice.version("k")


# -- 2PC participant machinery (repro.shard.txn) ------------------------------


def prepare(handle, ops, ts=100, seq=1, coord="co", inc=0,
            participants=(0, 1), home=0):
    value = json.dumps({"handle": handle, "txn": handle.split("#")[0],
                        "coord": coord, "inc": inc, "ts": ts,
                        "ops": [list(op) for op in ops],
                        "participants": list(participants), "home": home})
    return Command(op=OpType.TXN_PREPARE, key=f"txn:{handle}", value=value,
                   client_id=f"__txn__:{handle}", seq=seq)


def finish(handle, op, seq):
    value = json.dumps({"handle": handle})
    return Command(op=op, key=f"txn:{handle}", value=value,
                   client_id=f"__txn__:{handle}", seq=seq)


def vote_of(result):
    return json.loads(result.value)["vote"]


def test_prepare_locks_stages_reads_and_votes_yes():
    store = KVStore()
    store.apply(put("a", "old", seq=1))
    result = store.apply(prepare("t:1#0.1",
                                 [("put", "a", "new"), ("get", "b", None)]))
    payload = json.loads(result.value)
    assert payload["vote"] == "yes"
    # reads happen at the serialization point, writes stay staged
    assert payload["reads"] == {"b": None}
    assert store.read_local("a") == "old"
    assert store.locked_keys() == {"a": "t:1#0.1", "b": "t:1#0.1"}


def test_commit_installs_staged_writes_and_releases_locks():
    store = KVStore()
    store.apply(prepare("t:1#0.1", [("put", "a", "v")]))
    store.apply(finish("t:1#0.1", OpType.TXN_COMMIT, seq=2))
    assert store.read_local("a") == "v"
    assert store.version("a") == 1
    assert store.locked_keys() == {}
    # idempotent (dedup-suppressed duplicate and fresh-seq duplicate alike)
    store.apply(finish("t:1#0.1", OpType.TXN_COMMIT, seq=3))
    assert store.version("a") == 1


def test_abort_drops_staged_writes_and_releases_locks():
    store = KVStore()
    store.apply(prepare("t:1#0.1", [("put", "a", "v")]))
    store.apply(finish("t:1#0.1", OpType.TXN_ABORT, seq=2))
    assert store.read_local("a") is None
    assert store.version("a") == 0
    assert store.locked_keys() == {}


def test_wait_die_older_waits_younger_dies():
    store = KVStore()
    store.apply(prepare("t:1#0.1", [("put", "a", "v1")], ts=100))
    # younger (larger ts) requester dies
    young = store.apply(prepare("t:2#0.1", [("put", "a", "v2")], ts=200, seq=1))
    assert vote_of(young) == "no"
    # older (smaller ts) requester waits
    old = store.apply(prepare("t:3#0.1", [("put", "a", "v3")], ts=50, seq=1))
    assert vote_of(old) == "wait"
    # neither left any lock residue for itself
    assert store.locked_keys() == {"a": "t:1#0.1"}
    # after the holder commits, the retried prepare (fresh seq) is granted
    store.apply(finish("t:1#0.1", OpType.TXN_COMMIT, seq=2))
    retry = store.apply(prepare("t:3#0.1", [("put", "a", "v3")], ts=50, seq=2))
    assert vote_of(retry) == "yes"


def test_re_prepare_of_granted_attempt_revotes_yes():
    store = KVStore()
    store.apply(put("b", "seen", seq=1))
    first = store.apply(prepare("t:1#0.1", [("get", "b", None)], seq=1))
    again = store.apply(prepare("t:1#0.1", [("get", "b", None)], seq=2))
    assert vote_of(first) == vote_of(again) == "yes"
    assert json.loads(again.value)["reads"] == {"b": "seen"}


def test_fenced_incarnation_prepare_refused():
    store = KVStore()
    recover = Command(op=OpType.TXN_RECOVER, key="txnrec",
                      value=json.dumps({"coord": "co", "inc": 2}),
                      client_id="__txnrec__:co:2", seq=1)
    store.apply(recover)
    stale = store.apply(prepare("t:1#0.1", [("put", "a", "v")], inc=0))
    assert vote_of(stale) == "no"
    assert store.locked_keys() == {}
    # the new incarnation's prepares pass the fence
    fresh = store.apply(prepare("t:1#2.1", [("put", "a", "v")], inc=2, seq=2))
    assert vote_of(fresh) == "yes"


def home_commit(handle, seq, reads=None, low_water=-1, outcome="commit",
                client_id=None, keys=("a",)):
    """The home shard's first phase-2 step: a `TXN_COMMIT` (or, for a
    recovery sweep's abort, a `TXN_ABORT`) carrying the decision record."""
    value = json.dumps({"handle": handle, "txn": handle.split("#")[0],
                        "coord": "co", "participants": [0, 1],
                        "outcome": outcome, "reads": reads or {},
                        "keys": list(keys)})
    op = OpType.TXN_COMMIT if outcome == "commit" else OpType.TXN_ABORT
    return Command(op=op, key=f"txn:{handle}", value=value,
                   client_id=client_id or f"__txn__:{handle}", seq=seq,
                   acked_low_water=low_water)


def test_decide_first_recorded_wins():
    """A sweep's abort reaching the home shard after the commit was bound
    there is answered with the commit, and changes nothing."""
    store = KVStore()
    store.apply(prepare("t:1#a.1", [("put", "a", "v")], seq=1))
    assert store.apply(home_commit("t:1#a.1", seq=2)).value == '{"done": true}'
    late = store.apply(home_commit("t:1#a.1", seq=1, outcome="abort",
                                   client_id="__txn__:janitor.1"))
    assert json.loads(late.value)["outcome"] == "commit"
    assert store._decisions["t:1#a.1"]["outcome"] == "commit"
    assert store.read_local("a") == "v"


def test_home_commit_binds_its_decision_before_installing():
    store = KVStore()
    store.apply(prepare("t:1#a.1", [("put", "a", "v")], seq=1))
    assert store.apply(home_commit("t:1#a.1", seq=2)).ok
    assert store.read_local("a") == "v"
    assert store._decisions["t:1#a.1"]["outcome"] == "commit"
    assert store._txn_commits["t:1"]["handle"] == "t:1#a.1"


def test_home_commit_obeys_an_abort_bound_first():
    """A sweep's abort logged first wins the tie-break: the commit then
    drops the staged writes and answers with the abort."""
    store = KVStore()
    store.apply(prepare("t:1#a.1", [("put", "a", "v")], seq=1))
    assert store.apply(home_commit(
        "t:1#a.1", seq=1, outcome="abort",
        client_id="__txn__:janitor.1")).value == '{"done": true}'
    assert store.locked_keys() == {}
    result = store.apply(home_commit("t:1#a.1", seq=2))
    assert json.loads(result.value)["outcome"] == "abort"
    assert store.read_local("a") is None
    assert store.locked_keys() == {}


def test_home_prepare_of_a_committed_txns_sibling_votes_no_with_winner():
    """Two attempts of one transaction (a client's rotated retry): once
    the first is committed in its home shard, the second's home prepare
    must not vote yes — both would be answered — and carries the winner
    instead, reads included."""
    store = KVStore()
    store.apply(put("b", "seen", seq=1))
    store.apply(prepare("t:1#a.1", [("put", "a", "v"), ("get", "b", None)],
                        seq=1))
    store.apply(home_commit("t:1#a.1", seq=2, reads={"b": "seen"}))
    sibling = json.loads(store.apply(prepare(
        "t:1#b.1", [("put", "a", "v"), ("get", "b", None)], seq=1)).value)
    assert sibling["vote"] == "no"
    assert sibling["winner"]["handle"] == "t:1#a.1"
    assert sibling["winner"]["reads"] == {"b": "seen"}
    assert store.locked_keys() == {}
    assert store.version("a") == 1


def test_phase2_low_water_settles_the_attempts_earlier_answers():
    """A phase-2 command's low-water mark drops the attempt's cached
    prepare vote, and a late duplicate of that prepare is answered
    without re-locking the finished handle."""
    store = KVStore()
    store.apply(prepare("t:1#a.1", [("put", "a", "v")], seq=1))
    store.apply(home_commit("t:1#a.1", seq=2, low_water=1))
    assert list(store._sessions["__txn__:t:1#a.1"].entries) == [2]
    assert store.apply(prepare("t:1#a.1", [("put", "a", "v")], seq=1)).ok
    assert store.locked_keys() == {}
    assert store.version("a") == 1


#: One coordinator incarnation's dedup session: every 2PC step it sends,
#: whatever the handle, takes the next seq of one counter.
SESSION = "__txn__:co.1"


def step(command, seq, low_water):
    """`command` as the incarnation's session sends it: its seq, and the
    acked low-water one below its oldest open slot at this shard."""
    return dataclasses.replace(command, client_id=SESSION, seq=seq,
                               acked_low_water=low_water)


def test_late_copies_of_steps_below_the_low_water_are_never_reexecuted():
    """Once the session's low-water passes a handle's prepare and commit,
    the window holds neither, and a delayed copy of either is answered
    without applying: no lock is re-taken, and the staged writes are not
    installed a second time."""
    store = KVStore()
    t1 = "t:1#co.1.1"
    store.apply(step(prepare(t1, [("put", "a", "v")]), 1, 0))
    store.apply(step(finish(t1, OpType.TXN_COMMIT, 0), 2, 1))
    # The next attempt's prepare: every earlier slot here is acked.
    store.apply(step(prepare("t:2#co.1.2", [("put", "b", "w")]), 3, 2))
    assert list(store._sessions[SESSION].entries) == [3]
    assert store._settled == set()
    applied = store.applied_count
    for late in (step(prepare(t1, [("put", "a", "v")]), 1, 0),
                 step(finish(t1, OpType.TXN_COMMIT, 0), 2, 1)):
        assert store.apply(late).ok
    assert store.applied_count == applied
    assert store.locked_keys() == {"b": "t:2#co.1.2"}
    assert store.version("a") == 1


def test_a_late_prepare_behind_its_handles_abort_votes_no():
    """An attempt dropped with its prepare still in flight: the abort is
    logged first, and the low-water cannot pass the prepare yet (another
    attempt's older slot is open).  The late prepare meets the settled
    handle and votes no, locking nothing; the handle is forgotten once
    the low-water passes the abort."""
    store = KVStore()
    t1, t2 = "t:1#co.1.1", "t:2#co.1.2"
    store.apply(step(prepare(t1, [("put", "a", "v")]), 1, 0))
    store.apply(step(finish(t2, OpType.TXN_ABORT, 0), 3, 0))
    late = store.apply(step(prepare(t2, [("put", "b", "w")]), 2, 0))
    assert vote_of(late) == "no"
    assert store.locked_keys() == {"a": t1}
    store.apply(step(finish(t1, OpType.TXN_COMMIT, 0), 4, 3))
    assert store._settled == {t1} and store._holds[SESSION] == {4: t1}
    assert store.version("a") == 1 and store.version("b") == 0


def test_a_decision_lives_as_long_as_the_slot_that_bound_it():
    """The home commit's slot binds the decision; a janitor's abort that
    arrives while the slot is open is answered with the commit.  Once
    the low-water passes the slot, the decision is gone (the commit
    record stays: it answers every later attempt)."""
    store = KVStore()
    t1 = "t:1#co.1.1"
    store.apply(step(prepare(t1, [("put", "a", "v")]), 1, 0))
    store.apply(step(home_commit(t1, 0), 2, 1))
    late = store.apply(home_commit(t1, seq=1, outcome="abort",
                                   client_id="__txn__:janitor.1"))
    assert json.loads(late.value)["outcome"] == "commit"
    assert store._decisions[t1]["outcome"] == "commit"
    store.apply(step(prepare("t:2#co.1.2", [("put", "b", "w")]), 3, 2))
    assert t1 not in store._decisions and t1 not in store._settled
    assert store._txn_commits["t:1"]["handle"] == t1


def test_recover_reports_only_the_coordinators_prepared_handles():
    """The report is the coordinator's still-prepared handles and nothing
    else: a handle its home commit already bound and released is not in
    it, nor is any logged decision."""
    store = KVStore()
    store.apply(prepare("t:1#0.1", [("put", "a", "v")], coord="co", seq=1))
    store.apply(prepare("u:9#0.4", [("put", "b", "w")], coord="other", seq=1))
    store.apply(prepare("t:2#0.2", [("put", "c", "x")], coord="co", seq=1))
    store.apply(home_commit("t:2#0.2", seq=2, keys=("c",)))
    recover = Command(op=OpType.TXN_RECOVER, key="txnrec",
                      value=json.dumps({"coord": "co", "inc": 2}),
                      client_id="__txnrec__:co:2", seq=1)
    report = json.loads(store.apply(recover).value)
    assert list(report) == ["prepared"]
    assert [meta["handle"] for meta in report["prepared"]] == ["t:1#0.1"]


def test_commit_records_move_with_their_home_keys():
    """A range export copies every transaction commit record that names a
    key in the range, and the importer's prepare of a later attempt of
    that transaction votes no with the winner; a range holding no such
    key exports no `txn_commits` at all."""
    from repro.shard.partition import key_point

    donor = KVStore(key_filter=lambda key: True)
    donor.apply(prepare("t:1#a.1", [("put", "a", "v")], seq=1))
    donor.apply(home_commit("t:1#a.1", seq=2, keys=("a",)))
    point = key_point("a")
    export = donor.export_range(point, point + 1)
    assert list(export["txn_commits"]) == ["t:1"]
    assert "txn_commits" not in donor.export_range(0, point)

    importer = KVStore(key_filter=lambda key: True)
    importer.import_range(json.loads(json.dumps(export)))
    retry = json.loads(importer.apply(
        prepare("t:1#b.1", [("put", "a", "v")], seq=1)).value)
    assert retry["vote"] == "no"
    assert retry["winner"]["handle"] == "t:1#a.1"
    assert importer.locked_keys() == {}


def test_plain_ops_conflict_against_prepared_locks_without_dedup():
    store = KVStore()
    store.apply(prepare("t:1#0.1", [("put", "a", "staged")]))
    blocked = store.apply(put("a", "plain", client="c", seq=7))
    assert not blocked.ok and blocked.conflict
    blocked_read = store.apply(get("a", client="r", seq=3))
    assert not blocked_read.ok and blocked_read.conflict
    # the rejection did NOT consume the dedup slot: after the lock clears
    # the SAME sequence number applies for real
    store.apply(finish("t:1#0.1", OpType.TXN_ABORT, seq=2))
    retry = store.apply(put("a", "plain", client="c", seq=7))
    assert retry.ok
    assert store.read_local("a") == "plain"


def test_single_shard_txn_applies_atomically_and_respects_locks():
    store = KVStore()
    txn = Command(op=OpType.TXN, key="a",
                  value=json.dumps({"ops": [["put", "a", "v1"],
                                            ["get", "b", None]]}),
                  client_id="c", seq=1)
    result = store.apply(txn)
    assert result.ok
    assert json.loads(result.value)["reads"] == {"b": None}
    assert store.read_local("a") == "v1"
    # a lock on ANY touched key rejects the whole txn without dedup
    store.apply(prepare("t:1#0.1", [("put", "b", "x")], seq=1))
    txn2 = Command(op=OpType.TXN, key="a",
                   value=json.dumps({"ops": [["put", "a", "v2"],
                                             ["put", "b", "v3"]]}),
                   client_id="c", seq=2)
    blocked = store.apply(txn2)
    assert not blocked.ok and blocked.conflict
    assert store.read_local("a") == "v1"  # nothing partial
    store.apply(finish("t:1#0.1", OpType.TXN_ABORT, seq=2))
    assert store.apply(txn2).ok
    assert (store.read_local("a"), store.read_local("b")) == ("v2", "v3")


def test_write_order_records_install_order():
    store = KVStore(key_filter=lambda key: True)  # a shard member
    store.apply(put("k", "v1", seq=1))
    store.apply(prepare("t:1#0.1", [("put", "k", "v2")], seq=1))
    store.apply(finish("t:1#0.1", OpType.TXN_COMMIT, seq=2))
    assert store.write_order("k") == ["v1", "v2"]
    assert store.write_order("missing") == []
