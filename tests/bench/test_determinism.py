"""Determinism canary: same seed, same digest — always, for every
protocol.

The in-process double runs must agree (schedule-order determinism is
seed-only by construction), and every row must equal the committed golden
table (one digest per protocol) whatever ``PYTHONHASHSEED`` this
interpreter was launched with."""

import json
import pathlib

from repro.bench.determinism import (
    CANARY_ROWS,
    CANARY_SCALE,
    CANARY_SEED,
    TXN_ROW,
    VARIANTS,
    run_canary,
    sharded_txn_spec,
    state_digest,
)
from repro.protocols.registry import PROTOCOLS

GOLDEN = (pathlib.Path(__file__).resolve().parents[2]
          / "benchmarks" / "results" / "determinism_canary.json")


#: The Raft row predates the all-protocol table; extending the canary must
#: not have moved it.
RAFT_DIGEST = "3b0a4b4d158f6dd46a3a32fed759a3864fc4bbaf6c7a84795922020866a78e73"


def test_two_same_seed_runs_produce_identical_digests():
    # run_canary raises AssertionError if any protocol's double run diverges.
    table = run_canary(scale=0.25, seed=0)
    assert set(table["protocols"]) == set(CANARY_ROWS)
    for row in table["protocols"].values():
        assert row["completed"] > 0
        assert row["events"] > 0


def test_digest_is_seed_sensitive():
    digest_a, _ = state_digest(scale=0.25, seed=0)
    digest_b, _ = state_digest(scale=0.25, seed=1)
    assert digest_a != digest_b


def test_golden_table_covers_every_protocol_and_keeps_the_raft_row():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden["protocols"]) == set(CANARY_ROWS)
    assert set(PROTOCOLS) < set(CANARY_ROWS)
    assert golden["protocols"]["raft"]["digest"] == RAFT_DIGEST


def test_commutative_variant_is_a_different_run_from_the_ordered_row():
    # The variant row exists because the `mencius` row never reaches
    # `_advance_commutative`: same protocol, different digest.
    golden = json.loads(GOLDEN.read_text())["protocols"]
    assert (golden["mencius-commutative"]["digest"]
            != golden["mencius"]["digest"])
    assert golden["mencius-commutative"]["completed"] > 0


def test_txn_row_pins_the_conflict_paths_not_just_the_happy_one():
    # The row exists to guard the 2PC state machine: a golden run with no
    # cross-shard commit, no died attempt or no waited prepare would leave
    # those branches of `KVStore._apply_txn_prepare` unpinned.
    from repro.shard.txn import TxnCluster

    result = TxnCluster(sharded_txn_spec(CANARY_SCALE, CANARY_SEED).with_(
        **VARIANTS[TXN_ROW])).run()
    assert result.safe
    assert result.commits_2pc > 0
    assert result.attempt_aborts > 0
    assert result.waits > 0
    # Data groups and the coordinators' control journal are all digested.
    row = json.loads(GOLDEN.read_text())["protocols"][TXN_ROW]
    assert row["events"] == result.events_processed
    assert {name.split("_")[0] for name in row["log_lengths"]} == {
        "g0", "g1", "txnctl"}


def test_txn_row_digest_covers_value_text():
    # Same run, one byte of one command's value changed after the fact:
    # the single-group rows would not notice, this one must.
    from repro.bench import determinism

    digest, _ = state_digest(protocol=TXN_ROW)
    original = determinism._log_rows

    def tampered(replica, values=False):
        rows = original(replica, values)
        if values and rows:
            rows[-1][-2] = (rows[-1][-2] or "") + " "
        return rows

    determinism._log_rows = tampered
    try:
        other, _ = state_digest(protocol=TXN_ROW)
    finally:
        determinism._log_rows = original
    assert other != digest


def test_committed_golden_digests_match():
    golden = json.loads(GOLDEN.read_text())
    drifted = {}
    for protocol, row in golden["protocols"].items():
        digest, summary = state_digest(golden["scale"], golden["seed"],
                                       protocol)
        if digest != row["digest"]:
            drifted[protocol] = (summary["events"], row["events"])
    assert not drifted, (
        f"determinism drift vs committed canary (fresh, committed events): "
        f"{drifted}")
