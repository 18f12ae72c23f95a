"""JSONL export for a run's telemetry.

One line per record, each a JSON object with a `type` discriminator:

    {"type": "meta", ...}        run-level context (figure, seed, scale)
    {"type": "record", ...}      one completed client request
    {"type": "span", ...}        one reconstructed request-lifecycle span
    {"type": "gauge", ...}       one gauge series (name + [t, value] samples)
    {"type": "counter", ...}     one named event counter
    {"type": "profile", ...}     one profiler event-kind row

JSONL (not one big JSON document) so a partial file from an interrupted run
is still readable line by line (one `json.loads` per line), and `jq`/pandas
consume it directly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional


def dump_jsonl(path: str, *, meta: Optional[Dict[str, Any]] = None,
               records: Iterable = (), spans: Iterable = (),
               gauges: Optional[Dict[str, List]] = None,
               counters: Optional[Dict[str, int]] = None,
               profile: Iterable = ()) -> int:
    """Write one run's telemetry; returns the number of lines written."""
    lines = 0
    with open(path, "w", encoding="utf-8") as out:
        def emit(obj: Dict[str, Any]) -> None:
            nonlocal lines
            out.write(json.dumps(obj, separators=(",", ":"), default=str))
            out.write("\n")
            lines += 1

        if meta is not None:
            emit({"type": "meta", **meta})
        for record in records:
            emit({"type": "record", "client": record.client,
                  "site": record.site, "server": record.server,
                  "op": record.op.value, "start_us": record.start,
                  "end_us": record.end, "ok": record.ok,
                  "local_read": record.local_read})
        for span in spans:
            emit({"type": "span", **span.as_dict()})
        for name, samples in (gauges or {}).items():
            emit({"type": "gauge", "name": name,
                  "samples": [[t, v] for t, v in samples]})
        for name, count in (counters or {}).items():
            emit({"type": "counter", "name": name, "count": count})
        for row in profile:
            emit({"type": "profile", **row})
    return lines

