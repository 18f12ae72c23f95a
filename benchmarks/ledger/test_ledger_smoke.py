"""Smoke test of the ledger benchmark: every workload at `--scale 0.05`,
one untraced run plus the traced + checked pass, in-process."""

import copy
import json
import math

import pytest

from ledger import run as ledger
from ledger.measure import longest_ack_gap_ms
from ledger.trace import LAYERS
from ledger.workloads import WORKLOADS

SPEC = json.loads((ledger.ROOT / "BENCHMARK.json").read_text())
SCALE = 0.05
# The workloads built on `bench.harness.Cluster`: no mux, no shard layer.
SINGLE_GROUP = {"raft-wan-rw", "raftstar-pql-read90", "mencius-wan-4kb"}
SHARD_LAYERS = [layer for layer in LAYERS
                if layer == "protocols.mux" or layer.startswith("shard.")]


@pytest.fixture(scope="module", params=[w.name for w in WORKLOADS])
def result(request, tmp_path_factory):
    name = request.param
    out_dir = tmp_path_factory.mktemp("spans")
    untraced = ledger.run_once(name, 1, SCALE)
    traced = ledger.run_once(name, 1, SCALE, traced=True, out_dir=out_dir)
    summary = ledger.summarize(name, untraced, [untraced], [traced])
    summary["spans_file"] = out_dir / f"{name}.spans.jsonl"
    return summary


def test_benchmark_json_names_the_workloads_and_this_directory():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_every_named_metric_is_emitted_and_finite(result):
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        value = ledger.lookup(result, entry["name"])
        assert math.isfinite(value), entry["name"]
    for metric in ledger.END_TO_END:
        assert metric.name in result["end_to_end"]
    assert result["per_layer"]["bench.ops_committed"] > 0


def test_every_emitted_metric_is_named_and_printed_with_its_unit(result):
    named = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(result["end_to_end"]) | set(result["per_layer"]) == named
    text = ledger.render({result["workload"]: result})
    for entry in SPEC["per_layer"]:
        # The ledger's three columns and the end-to-end rows are tables
        # with the unit in the heading or in a column of its own.
        if not (entry["name"] in result["end_to_end"] or entry["name"].endswith(
                (".calls_per_op", ".self_us_per_op", ".self_share"))):
            assert f"{entry['name']:<40}{entry['unit']:<8}" in text


def test_a_setup_only_run_reports_set_up_time_alone():
    run = ledger.run_once("raft-wan-rw", 1, SCALE, setup_only=True)
    assert run == {"host": {"setup_s": run["host"]["setup_s"]}}
    assert run["host"]["setup_s"] > 0


def test_traced_and_untraced_simulated_metrics_are_equal(result):
    # `summarize` compares the whole exact dict of the two passes.
    assert result["problems"] == []
    assert result["correct"]


def test_no_safety_violations_and_nothing_failed(result):
    assert result["end_to_end"]["safety_violations"]["median"] == 0
    assert result["failed"] == 0


def test_single_group_workloads_never_enter_the_shard_layers(result):
    calls = {layer: result["per_layer"][f"{layer}.calls_per_op"]
             for layer in SHARD_LAYERS}
    if result["workload"] in SINGLE_GROUP:
        assert not any(calls.values()), calls
    elif result["workload"] == "mux-txn-colocated":
        assert all(calls.values()), calls


def test_ledger_closes_and_spans_are_written(result):
    per_layer = result["per_layer"]
    shares = sum(per_layer[f"{layer}.self_share"] for layer in LAYERS)
    total = (shares + per_layer["bench.trace_self_share"]
             + per_layer["bench.ledger_residual_share"])
    assert total == pytest.approx(1.0)
    lines = result["spans_file"].read_text().splitlines()
    kinds = {json.loads(line)["type"] for line in lines[:2000]}
    assert kinds == {"meta", "aggregate", "span"}


def test_determinism_mismatch_fails_the_workload_and_names_the_metric():
    run = ledger.run_once("mencius-wan-4kb", 1, SCALE)
    other = copy.deepcopy(run)
    other["exact"]["end_to_end"]["sim_commit_p50_ms"] += 0.001
    summary = ledger.summarize("mencius-wan-4kb", other, [run], [])
    assert not summary["correct"]
    assert "sim_commit_p50_ms" in summary["problems"][0]


def test_compare_flags_only_real_regressions(tmp_path, result, capsys):
    base = {"workloads": {result["workload"]: result}}
    worse = json.loads(json.dumps(base, default=str))
    row = worse["workloads"][result["workload"]]["end_to_end"]
    row["sim_commit_p99_ms"]["median"] *= 1.05
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base, default=str))
    b.write_text(json.dumps(worse))
    assert ledger.compare(str(a), str(a)) == 0
    assert ledger.compare(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "WARNING" not in out


def test_a_spread_wider_than_the_bound_is_unresolved_not_same():
    host = ledger.END_TO_END[1]
    assert (host.name, host.bound) == ("host_us_per_op", 0.10)
    steady = {"median": 250.0, "iqr": 10.0}
    assert ledger.verdict(host, steady, {"median": 252.0, "iqr": 31.0}) \
        == "unresolved"
    assert ledger.verdict(host, steady, {"median": 252.0, "iqr": 12.0}) \
        == "same"
    assert ledger.verdict(host, steady, {"median": 290.0, "iqr": 12.0}) \
        == "worse"
    assert ledger.verdict(host, steady, {"median": 210.0, "iqr": 12.0}) \
        == "better"
    exact = ledger.END_TO_END[-1]
    assert exact.bound == 0.0
    none = {"median": 0, "iqr": 0.0}
    assert ledger.verdict(exact, none, none) == "same"
    assert ledger.verdict(exact, none, {"median": 1, "iqr": 0.0}) == "worse"


def test_an_outage_that_never_ends_runs_to_the_window_end():
    # Fault at 10 ms, two in-flight acks straggle in, then nothing until
    # the window closes at 500 ms.
    assert longest_ack_gap_ms(10_000, [2_000, 12_000, 15_000], 500_000) == 485.0
    assert longest_ack_gap_ms(10_000, [], 500_000) == 490.0
    assert longest_ack_gap_ms(10_000, [200_000, 495_000], 500_000) == 295.0
