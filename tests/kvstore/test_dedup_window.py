"""Property tests for the windowed at-most-once dedup (`DedupSession`).

The three invariants the pipelined session API rests on:

* a retry of ANY sequence number still inside the window returns the
  cached result without re-executing;
* low-water-mark eviction never drops a slot whose seq can still be
  retried — only client-acked seqs are ever stamped into
  `Command.acked_low_water`, so an un-acked retry always finds its slot;
* the window state survives a MIGRATE_OUT/IN round-trip intact (including
  the JSON wire format the migration commands use).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.kvstore.store import DedupSession, KVStore
from repro.protocols.types import Command, OpType
from repro.shard.partition import HASH_SPACE, key_point


def put(key, value, seq, client="c", lwm=-1):
    return Command(op=OpType.PUT, key=key, value=value, client_id=client,
                   seq=seq, acked_low_water=lwm)


# A schedule is a list of (ack_order_permutation_seed, retry_choices); we
# model a depth-`depth` pipeline client driving a store directly.


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=8),        # pipeline depth
       st.integers(min_value=5, max_value=40),       # operations
       st.randoms(use_true_random=False))
def test_window_retries_cached_and_each_seq_executes_once(depth, n_ops, rng):
    """Drive a random pipelined schedule: issue up to `depth` outstanding
    seqs, ack them in random order, retry random outstanding (un-acked)
    seqs at random points.  Every seq must execute exactly once and every
    retry must see the original result."""
    store = KVStore()
    outstanding = []      # issued, not acked (client's window)
    acked = set()
    next_seq = 1
    floor = 0             # contiguous acked floor (what the client stamps)
    first_results = {}

    def advance_floor():
        nonlocal floor
        while floor + 1 in acked:
            floor += 1
            acked.discard(floor)

    while next_seq <= n_ops or outstanding:
        choices = []
        if next_seq <= n_ops and len(outstanding) < depth:
            choices.append("issue")
        if outstanding:
            choices.extend(["ack", "retry"])
        action = rng.choice(choices)
        if action == "issue":
            seq = next_seq
            next_seq += 1
            result = store.apply(put(f"k{seq % 5}", f"v{seq}", seq, lwm=floor))
            assert result.ok
            first_results[seq] = result
            outstanding.append(seq)
        elif action == "retry":
            seq = rng.choice(outstanding)
            replay = store.apply(put(f"k{seq % 5}", f"v{seq}", seq, lwm=floor))
            assert replay.ok
            assert replay is first_results[seq] or replay == first_results[seq]
        else:  # ack (in ANY order — replies complete out of order)
            seq = rng.choice(outstanding)
            outstanding.remove(seq)
            acked.add(seq)
            advance_floor()
    # exactly one execution per seq: version count == distinct writes per key
    assert store.applied_count == n_ops
    for key in {f"k{seq % 5}" for seq in range(1, n_ops + 1)}:
        expected = sum(1 for seq in range(1, n_ops + 1) if f"k{seq % 5}" == key)
        assert store.version(key) == expected


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=5, max_value=40),
       st.randoms(use_true_random=False))
def test_eviction_never_drops_unacked_seq(depth, n_ops, rng):
    """The eviction safety half: no matter how far the newest seq runs
    ahead, a slot stays resident until the CLIENT acks it — a straggler
    (oldest un-acked seq with a retry still in flight) survives arbitrary
    progress by younger seqs."""
    store = KVStore()
    # seq 1 never acked; the client keeps completing younger seqs.
    straggler = store.apply(put("straggler", "v1", 1))
    floor = 0
    acked = set()
    for seq in range(2, n_ops + 2):
        store.apply(put(f"k{seq}", f"v{seq}", seq, lwm=floor))
        acked.add(seq)     # acked promptly -> floor stays below seq 1? no:
        # floor only advances over CONTIGUOUS acks, and seq 1 never acks,
        # so the stamped floor stays 0 forever.
        while floor + 1 in acked:
            floor += 1
    replay = store.apply(put("straggler", "v1", 1, lwm=floor))
    assert replay.ok
    assert store.version("straggler") == 1  # never re-executed
    session = store._sessions["c"]
    assert 1 in session.entries  # the slot is still resident


def migrate_roundtrip(store, lo, hi):
    """Export a range through the MIGRATE_OUT command path (JSON wire
    format) and import it into a fresh store via MIGRATE_IN."""
    value = json.dumps({"lo": lo, "hi": hi})
    out = store.apply(Command(op=OpType.MIGRATE_OUT, key="reshard:x",
                              value=value, client_id="__reshard__", seq=1))
    assert out.ok
    payload = json.loads(out.value)
    # Every MIGRATE_IN target is a shard member: it has a key filter, so
    # it records per-key install order.
    recipient = KVStore(key_filter=lambda key: True)
    in_value = json.dumps(payload)
    assert recipient.apply(Command(op=OpType.MIGRATE_IN, key="reshard:in",
                                   value=in_value, client_id="__reshard__",
                                   seq=2, value_size=len(in_value))).ok
    return recipient


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=25),
       st.integers(min_value=0, max_value=HASH_SPACE - 1))
def test_window_survives_migrate_roundtrip(ops, split):
    """Windowed dedup state survives MIGRATE_OUT/IN: after moving a range,
    a retry of any applied seq — whichever side its key landed on — is
    answered from cache, and no write re-executes."""
    # A MIGRATE_OUT donor is a shard member too: the recipient takes its
    # versions from the install order the export carries.
    donor = KVStore(key_filter=lambda key: True)
    commands = []
    for seq, (key, client_id) in enumerate(ops, start=1):
        command = put(key, f"v{client_id}:{seq}", seq, client=f"c{client_id}")
        donor.apply(command)
        commands.append(command)
    before_versions = {key: donor.version(key) for key, _ in ops}
    recipient = migrate_roundtrip(donor, 0, split)

    for command in commands:
        side = recipient if key_point(command.key) < split else donor
        replay = side.apply(command)
        assert replay.ok
    # nothing re-executed on either side
    for key, _ in ops:
        side = recipient if key_point(key) < split else donor
        assert side.version(key) == before_versions[key]
        assert (donor.version(key) if side is recipient
                else recipient.version(key)) == 0


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=1, max_value=30),
                min_size=1, max_size=30))
def test_migrated_window_respects_low_water(seqs):
    """The low-water mark travels with the export: seqs at or below it are
    duplicates on the recipient too."""
    donor = KVStore(key_filter=lambda key: True)
    top = max(seqs)
    for seq in sorted(set(seqs)):
        donor.apply(put("k", f"v{seq}", seq, lwm=seq - 1))
    recipient = migrate_roundtrip(donor, 0, HASH_SPACE)
    session = recipient._sessions.get("c")
    assert session is not None
    assert session.low_water >= top - 1
    # a stale retransmit below the floor is an acked duplicate: no effect
    assert recipient.apply(put("k", "zzz", min(seqs) - 1 or 1)).ok
    assert "zzz" not in recipient.write_order("k")


def test_one_slot_window_payload_round_trips():
    session = DedupSession.from_payload(
        {"low_water": 6, "entries": {"7": ["k", True, "cached"]}})
    assert session.low_water == 6
    assert session.entries[7][0] == "k"
    assert session.entries[7][1].value == "cached"
    assert session.lookup(7).value == "cached"
    assert session.lookup(3).ok          # below the floor: acked duplicate
    assert session.lookup(8) is None     # new
