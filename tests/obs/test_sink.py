"""JSONL telemetry export: dump, read back, and the Observability facade."""

import json

from repro.bench.experiments import pipeline_spec
from repro.bench.harness import run_experiment
from repro.metrics.recorder import RequestRecord
from repro.obs import Span, dump_jsonl
from repro.protocols.types import OpType


def test_round_trip(tmp_path):
    path = str(tmp_path / "telemetry.jsonl")
    record = RequestRecord(client="c", site="oregon", server="r_oregon",
                           op=OpType.GET, start=10, end=30, ok=True)
    span = Span(trace="c:0", events=[(10, "submit", "c"),
                                     (30, "complete", "c")])
    lines = dump_jsonl(
        path, meta={"figure": "test", "seed": 1},
        records=[record], spans=[span],
        gauges={"q": [(5, 1.0), (10, 2.0)]}, counters={"redirects": 3},
        profile=[{"kind": "handle:X", "count": 4, "wall_s": 0.1,
                  "share": 1.0}])
    with open(path) as src:
        rows = [json.loads(line) for line in src]
    assert lines == len(rows) == 6
    assert rows[0] == {"type": "meta", "figure": "test", "seed": 1}
    by_type = {row["type"]: row for row in rows}
    assert by_type["record"]["op"] == "get"
    assert by_type["record"]["start_us"] == 10
    assert by_type["span"]["trace"] == "c:0"
    assert by_type["span"]["latency_us"] == 20
    assert by_type["gauge"]["samples"] == [[5, 1.0], [10, 2.0]]
    assert by_type["counter"]["count"] == 3
    assert by_type["profile"]["kind"] == "handle:X"


def test_every_line_is_valid_json(tmp_path):
    path = str(tmp_path / "run.jsonl")
    spec = pipeline_spec(0.2, seed=2, protocol="raft", depth=4).with_(obs=True)
    result = run_experiment(spec)
    lines = result.obs.dump(path, meta={"figure": "smoke"})
    with open(path) as src:
        parsed = [json.loads(line) for line in src]
    assert len(parsed) == lines
    types = {row["type"] for row in parsed}
    assert {"meta", "record", "span", "gauge", "profile"} <= types
    # Incomplete spans are exported too (complete flag distinguishes).
    spans = [row for row in parsed if row["type"] == "span"]
    assert any(row["complete"] for row in spans)
