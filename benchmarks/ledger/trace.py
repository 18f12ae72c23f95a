"""The traced pass: spans at every layer boundary, measured from outside.

Nothing under `src/` knows about this file.  A `Tracer`

* sits on the public `Simulator.profiler` hook and opens a **root span**
  per dispatched event, billed to the layer that owns the callback (the
  module of the bound method's class: handlers -> `protocols`,
  `Network._deliver` -> `sim.network`, a timer -> the layer of its node);
  the time *between* two dispatches is the event loop itself and is
  billed to `sim.events` as kind `loop`;
* replaces, at class level and only while `installed()`, the layers'
  entry points with wrappers that open a **child span** around the call.

A span is (id, layer, kind, start_ns, end_ns, parent id, trace id); a
stack gives parents, and a layer's *self time* is its spans' duration
minus the part their children cover.  Every span is aggregated per
(layer, kind); the first `MAX_SPANS` raw spans of the steady window are
kept in memory and written out by `write()` after the run.

The clock is `time.perf_counter_ns` (a vDSO read, ~50 ns; the CPU-time
clock is a real syscall and would dominate a 5 us span).  Wrapper
bookkeeping that falls outside a span's own two clock reads lands in the
*parent's* self time, so layers that make many wrapped calls carry some
of the tracer's cost; `bench.trace_overhead_ratio` says how much there is
in total.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.kvstore import checker as checker_module
from repro.kvstore.checker import HistoryChecker
from repro.kvstore.store import KVStore
from repro.metrics.recorder import MetricsRecorder
from repro.protocols.base import ReplicaBase
from repro.protocols.messages import ClientRequest, TxnRequest
from repro.protocols.mux import GroupMux
from repro.shard import txn as txn_module
from repro.shard.control import ControlView, ReplicatedCoordinator
from repro.shard.router import ShardRouter
from repro.shard.txn import TxnCoordinator
from repro.sim.events import Event, Simulator
from repro.sim.network import Network
from repro.sim.node import Host, Node, Timer
from repro.workload.session import Session

LAYERS = (
    "sim.events", "sim.network", "sim.node", "protocols", "protocols.mux",
    "kvstore.store", "kvstore.checker", "workload.session", "shard.router",
    "shard.txn", "shard.control", "metrics.recorder",
)

#: Code that is not one of `LAYERS` (nemesis closures, the harness): part
#: of the ledger residual.
OTHER = "other"
#: The part of the tracer's own cost it can see: classifying each event
#: between entering `dispatch` and starting the callback.
TRACER = "bench.trace"

# Longest prefix first.
_MODULE_LAYERS = (
    ("repro.sim.events", "sim.events"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.node", "sim.node"),
    ("repro.protocols.mux", "protocols.mux"),
    ("repro.protocols", "protocols"),
    ("repro.membership", "protocols"),
    ("repro.kvstore.store", "kvstore.store"),
    ("repro.kvstore.checker", "kvstore.checker"),
    ("repro.workload", "workload.session"),
    ("repro.shard.router", "shard.router"),
    ("repro.shard.txn", "shard.txn"),
    ("repro.shard.control", "shard.control"),
    ("repro.metrics", "metrics.recorder"),
)

#: Raw spans kept in memory and written out; aggregates cover every span.
MAX_SPANS = 200_000

_MISSING = object()
_now = time.perf_counter_ns


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module is not None and module.startswith(prefix):
            return layer
    return OTHER


def _trace_id(args: tuple) -> Optional[str]:
    """`client:seq` when an argument carries a command or a request id."""
    for arg in args:
        rid = getattr(arg, "request_id", None)
        if rid is None:
            rid = getattr(getattr(arg, "command", None), "request_id", None)
        if isinstance(rid, tuple):
            return f"{rid[0]}:{rid[1]}"
    return None


class Tracer:
    #: Part of the profiler hook's protocol: `GroupMux.on_message` asks
    #: whether to time each unpacked message itself (the handler spans
    #: below already do).
    mux_detail = False

    def __init__(self, window_us: Tuple[int, int]) -> None:
        self.window_us = window_us
        # (layer, kind) -> [spans, inclusive ns, self ns]
        self.cells: Dict[Tuple[str, str], List[int]] = {}
        # layer -> [spans entered from another layer or from the loop]
        self.entries: Dict[str, List[int]] = {}
        # Raw spans: (frame, layer, kind, start_ns, duration_ns, parent
        # frame, trace id).  Frames stand in for span ids until `write`.
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = {
            "cancels": 0, "client_sends": 0, "lock_conflicts": 0}
        self.egress_wait_us: List[int] = []
        self.cpu_wait_us: List[int] = []
        self.follower_lag_max = 0
        # Set by the caller once the cluster is built (lag sampling).
        self.groups: List[List[Any]] = []
        self.in_window = False
        self.recording = False
        # Open spans, innermost last: [child ns, layer].  The bottom frame
        # is a sentinel so `stack[-1]` always exists.
        self._stack: List[list] = [[0, None]]
        # Simulated time of the next change of `in_window`.
        self._boundary = window_us[0]
        self._last_end: Optional[int] = None
        self._root_cells: Dict[tuple, tuple] = {}
        # Event callback function -> index of its message argument.
        self._message_arg: Dict[Any, Optional[int]] = {}
        self._loop = self._cell("sim.events", "loop")
        self._classify_cell = self._cell(TRACER, "classify")
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- aggregation --------------------------------------------------------

    def _cell(self, layer: str, kind: str) -> List[int]:
        cell = self.cells.get((layer, kind))
        if cell is None:
            cell = self.cells[(layer, kind)] = [0, 0, 0]
            self.entries.setdefault(layer, [0])
        return cell

    def span(self, layer: str, kind: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """`fn` wrapped in a child span.  `before(*args)` runs ahead of the
        span and `after(result)` behind it, both billed to the caller."""
        cell = self._cell(layer, kind)
        entered = self.entries[layer]
        stack = self._stack
        push, pop = stack.append, stack.pop
        record = self.spans.append

        def spanned(*args, **kwargs):
            frame = [0, layer]
            push(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                pop()
                parent = stack[-1]
                parent[0] += dt
                cell[0] += 1
                cell[1] += dt
                cell[2] += dt - frame[0]
                if parent[1] != layer:
                    entered[0] += 1
                if self.recording:
                    record((frame, layer, kind, t0, dt, parent,
                            _trace_id(args)))

        if before is None and after is None:
            return spanned

        def hooked(*args, **kwargs):
            if before is not None:
                before(*args)
            result = spanned(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return hooked

    # -- the Simulator.profiler hook -------------------------------------------

    def dispatch(self, event) -> None:
        ta = _now()
        last_end = self._last_end
        if last_end is not None:
            gap = ta - last_end
            loop = self._loop
            loop[0] += 1
            loop[1] += gap
            loop[2] += gap
        if event.time >= self._boundary:
            self._cross_boundary(event.time)
        callback = event.callback
        args = event.args
        try:
            func = callback.__func__
            owner = callback.__self__
        except AttributeError:      # a plain function or closure
            func = callback
            owner = None
        try:
            index = self._message_arg[func]
        except KeyError:
            index = self._message_arg[func] = {
                "_handle": 1, "_deliver": 2}.get(
                    getattr(func, "__name__", None))
        if index is not None:
            key = (func, owner.__class__, args[index].__class__)
        elif owner.__class__ is Timer:
            key = (func, owner.node.__class__, owner.name)
        else:
            key = (func, owner.__class__)
        found = self._root_cells.get(key)
        if found is None:
            found = self._root_cells[key] = self._classify(key, func, owner)
        layer, kind, cell, entered = found
        stack = self._stack
        frame = [0, layer]
        stack.append(frame)
        classify = self._classify_cell
        tb = _now()
        classify[0] += 1
        classify[1] += tb - ta
        classify[2] += tb - ta
        try:
            callback(*args)
        finally:
            tc = _now()
            dt = tc - tb
            stack.pop()
            cell[0] += 1
            cell[1] += dt
            cell[2] += dt - frame[0]
            entered[0] += 1
            if self.recording:
                self.spans.append((frame, layer, kind, tb, dt, None,
                                   _trace_id(args)))
                if len(self.spans) >= MAX_SPANS:
                    self.recording = False
            self._last_end = tc

    def _classify(self, key: tuple, func, owner) -> tuple:
        name = getattr(func, "__name__", type(func).__name__).lstrip("_")
        if owner.__class__ is Timer:
            layer = layer_of_module(key[1].__module__)
            # "txn-retry:17", "ctl-j5", "after@1234" -> one kind each.
            kind = "timer:" + re.sub(r"[:@\d].*", "", owner.name)
        else:
            layer = layer_of_module(key[1].__module__ if owner is not None
                                    else getattr(func, "__module__", None))
            kind = f"{name}:{key[2].__name__}" if len(key) == 3 else name
        return (layer, kind, self._cell(layer, kind), self.entries[layer])

    def _cross_boundary(self, now_us: int) -> None:
        start_us, end_us = self.window_us
        self.in_window = start_us <= now_us <= end_us
        self.recording = (self.in_window
                          and len(self.spans) < MAX_SPANS)
        self._boundary = (end_us + 1 if self.in_window
                          else float("inf") if now_us > end_us else start_us)

    def sample_lag(self, *_args) -> None:
        """Follower lag in applied log entries, per group, right now."""
        if not self.in_window:
            return
        for group in self.groups:
            applied = [r.last_applied for r in group if r.alive]
            if applied:
                lag = max(applied) - min(applied)
                if lag > self.follower_lag_max:
                    self.follower_lag_max = lag

    # -- class-level wrappers ------------------------------------------------

    def _patch(self, target: Any, name: str, layer: str,
               kind: Optional[str] = None, **hooks) -> None:
        original = getattr(target, name)
        self._replace(target, name,
                      self.span(layer, kind or name, original, **hooks))

    def _replace(self, target: Any, name: str, value: Any) -> None:
        self._patched.append((target, name,
                              vars(target).get(name, _MISSING)))
        setattr(target, name, value)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install the entry-point wrappers; build AND run the cluster
        inside (constructors cache bound methods such as `sim.schedule`).
        The caller attaches the dispatcher: `cluster.sim.profiler = tracer`."""
        self._install()
        try:
            yield self
        finally:
            for target, name, original in reversed(self._patched):
                if original is _MISSING:
                    delattr(target, name)
                else:
                    setattr(target, name, original)
            self._patched.clear()

    def _install(self) -> None:
        counts = self.counts
        patch = self._patch

        def count_cancel(event) -> None:
            if not event.cancelled:
                counts["cancels"] += 1

        def sample_egress(network, src, *rest) -> None:
            if self.in_window:
                self.egress_wait_us.append(network.egress_backlog_us(src))

        def sample_cpu_node(node, *rest) -> None:
            if self.in_window:
                self.cpu_wait_us.append(node.host.cpu_backlog_us())

        def sample_cpu_host(host, *rest) -> None:
            if self.in_window:
                self.cpu_wait_us.append(host.cpu_backlog_us())

        def count_conflict(result) -> None:
            if result.conflict:
                counts["lock_conflicts"] += 1

        def count_client_send(session, dst, message) -> None:
            if isinstance(message, (ClientRequest, TxnRequest)):
                counts["client_sends"] += 1

        patch(Simulator, "schedule", "sim.events")
        patch(Event, "cancel", "sim.events", before=count_cancel)
        patch(Network, "send", "sim.network", before=sample_egress)
        # `Node._receive` inlines the host CPU queue (it never calls
        # `Host.run_for`), so it is the boundary network -> node.
        patch(Node, "_receive", "sim.node", "receive", before=sample_cpu_node)
        patch(Host, "run_for", "sim.node", before=sample_cpu_host)
        patch(KVStore, "apply", "kvstore.store", after=count_conflict)
        patch(KVStore, "apply_batch", "kvstore.store")
        patch(GroupMux, "enqueue", "protocols.mux")
        patch(GroupMux, "flush", "protocols.mux")
        patch(Session, "submit", "workload.session")
        patch(Session, "on_message", "workload.session")
        # `Node.send` as seen from a session: every request a client puts
        # on the wire, first sends and re-sends alike.
        patch(Session, "send", "workload.session", before=count_client_send)
        patch(ShardRouter, "route", "shard.router")
        patch(TxnCoordinator, "on_message", "shard.txn")
        patch(ReplicatedCoordinator, "journal", "shard.control")
        patch(ControlView, "on_apply", "shard.control")
        for name in ("record_apply", "record_event", "check_all",
                     "check_prefix_agreement"):
            patch(HistoryChecker, name, "kvstore.checker")
        # Imported by name into shard.txn, so both bindings are replaced.
        patch(checker_module, "check_strict_serializability",
              "kvstore.checker")
        self._replace(txn_module, "check_strict_serializability",
                      checker_module.check_strict_serializability)
        # Every ack is also where follower lag is sampled.
        patch(MetricsRecorder, "add", "metrics.recorder",
              before=self.sample_lag)
        for name in ("incr", "window", "throughput_ops",
                     "latency_summary_ms", "completion_throughput",
                     "completion_latency_summary_ms", "split_by_site",
                     "local_read_fraction", "throughput_by"):
            patch(MetricsRecorder, name, "metrics.recorder")

        # Handlers are bound methods held in a per-replica dict, reached
        # either from `ReplicaBase._handle` or from the mux's unpack loop:
        # wrapping them at registration bills both paths to the replica.
        register = ReplicaBase.register_handler

        def register_handler(replica, message_type, handler) -> None:
            layer = layer_of_module(type(replica).__module__)
            register(replica, message_type,
                     self.span(layer, f"on:{message_type.__name__}", handler))

        self._replace(ReplicaBase, "register_handler", register_handler)

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """layer -> {"calls": entries from outside, "self_ns": ...}."""
        totals = {layer: {"calls": 0, "self_ns": 0}
                  for layer in LAYERS + (OTHER, TRACER)}
        for (layer, _kind), (_spans, _incl, self_ns) in self.cells.items():
            totals[layer]["self_ns"] += self_ns
        for layer, entered in self.entries.items():
            totals[layer]["calls"] = entered[0]
        return totals

    def write(self, path, meta: Dict[str, Any]) -> None:
        """Aggregates, then raw spans (times relative to the first one)."""
        spans = self.spans[:MAX_SPANS]
        ids = {id(span[0]): number for number, span in enumerate(spans)}
        origin = min((span[3] for span in spans), default=0)
        with open(path, "w") as out:
            out.write(json.dumps({"type": "meta", **meta}) + "\n")
            for (layer, kind), (count, incl, self_ns) in sorted(
                    self.cells.items()):
                out.write(json.dumps({
                    "type": "aggregate", "layer": layer, "kind": kind,
                    "spans": count, "inclusive_ns": incl,
                    "self_ns": self_ns}) + "\n")
            for number, (_frame, layer, kind, t0, dt, parent, trace) in \
                    enumerate(spans):
                out.write(json.dumps({
                    "type": "span", "id": number, "layer": layer,
                    "kind": kind, "start_ns": t0 - origin,
                    "end_ns": t0 - origin + dt,
                    "parent": ids.get(id(parent), -1), "trace": trace})
                    + "\n")
