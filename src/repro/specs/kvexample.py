"""Figure 4: the paper's running example of optimization porting.

* **A** — a key-value store: `Put(k, v)` sets `table[k] = {v}`,
  `Get(k)` reads it into `output`.
* **B** — a log-structured store: `Write(i, v)` appends at index i
  (enabled only when the log is contiguous), `Read(i)` reads it.
  B refines A under the mapping `table[k] = logs[k]`.
* **A∆** — A plus a `size` counter: `Put` gains the guard
  `table[k] = {}` and the update `size' = size + 1` (Figure 4c).
* **B∆** — generated by `port_optimization`; compare with Figure 4d.

Domains are finite (keys 0..K-1, a small value set) so every refinement
obligation is fully checkable.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.action import Action, Clause
from repro.core.machine import SpecMachine
from repro.core.porting import PortSpec, port_optimization
from repro.core.refinement import RefinementMapping
from repro.core.state import State, fmap_const

EMPTY: Tuple = ()


def _keys(constants, state):
    return range(constants["keys"])


def _values(constants, state):
    return constants["values"]


# --------------------------------------------------------------------------
# A: the key-value store (Figure 4a)
# --------------------------------------------------------------------------

PUT_SET = Clause(
    name="put-sets-table",
    kind="update",
    var="table",
    fn=lambda s, p: s["table"].set(p["k"], (p["v"],)),
)
GET_READS = Clause(
    name="get-reads-table",
    kind="update",
    var="output",
    fn=lambda s, p: s["table"][p["k"]],
)


def kv_store(keys: int = 2, values=("a", "b")) -> SpecMachine:
    return SpecMachine(
        name="kv-store(A)",
        variables=("table", "output"),
        constants={"keys": keys, "values": tuple(values)},
        init=lambda c: [State({
            "table": fmap_const(range(c["keys"]), EMPTY),
            "output": EMPTY,
        })],
        actions=[
            Action(name="Put", params={"k": _keys, "v": _values}, clauses=(PUT_SET,)),
            Action(name="Get", params={"k": _keys}, clauses=(GET_READS,)),
        ],
    )


# --------------------------------------------------------------------------
# B: the log (Figure 4b)
# --------------------------------------------------------------------------

WRITE_CONTIGUOUS = Clause(
    name="write-contiguous",
    kind="guard",
    fn=lambda s, p: p["i"] == 0 or s["logs"][p["i"] - 1] != EMPTY,
)
WRITE_SETS_LOG = Clause(
    name="write-sets-log",
    kind="update",
    var="logs",
    fn=lambda s, p: s["logs"].set(p["i"], (p["v"],)),
)
READ_READS = Clause(
    name="read-reads-log",
    kind="update",
    var="output",
    fn=lambda s, p: s["logs"][p["i"]],
)


def log_store(keys: int = 2, values=("a", "b")) -> SpecMachine:
    return SpecMachine(
        name="log-store(B)",
        variables=("logs", "output"),
        constants={"keys": keys, "values": tuple(values)},
        init=lambda c: [State({
            "logs": fmap_const(range(c["keys"]), EMPTY),
            "output": EMPTY,
        })],
        actions=[
            Action(name="Write", params={"i": _keys, "v": _values},
                   clauses=(WRITE_CONTIGUOUS, WRITE_SETS_LOG)),
            Action(name="Read", params={"i": _keys}, clauses=(READ_READS,)),
        ],
    )


# --------------------------------------------------------------------------
# The refinement mapping B => A: table[k] = logs[k]
# --------------------------------------------------------------------------

def log_to_kv_mapping() -> RefinementMapping:
    def state_map(state: State) -> State:
        return State({"table": state["logs"], "output": state["output"]})

    return RefinementMapping(
        name="logs-as-table",
        state_map=state_map,
        action_map={"Write": ("Put",), "Read": ("Get",)},
    )


# --------------------------------------------------------------------------
# A∆: the size-tracking optimization (Figure 4c)
# --------------------------------------------------------------------------

PUT_ONLY_FRESH = Clause(
    name="put-only-fresh",
    kind="guard",
    fn=lambda s, p: s["table"][p["k"]] == EMPTY,
)
PUT_BUMPS_SIZE = Clause(
    name="put-bumps-size",
    kind="update",
    var="size",
    fn=lambda s, p: s["size"] + 1,
)


def kv_store_sized(keys: int = 2, values=("a", "b")) -> SpecMachine:
    base = kv_store(keys, values)
    return SpecMachine(
        name="kv-store-sized(A-delta)",
        variables=("table", "output", "size"),
        constants=dict(base.constants),
        init=lambda c: [State({
            "table": fmap_const(range(c["keys"]), EMPTY),
            "output": EMPTY,
            "size": 0,
        })],
        actions=[
            # The modified Put: A's clauses plus the two new conjuncts.
            Action(name="Put", params={"k": _keys, "v": _values},
                   clauses=(PUT_SET, PUT_ONLY_FRESH, PUT_BUMPS_SIZE)),
            Action(name="Get", params={"k": _keys}, clauses=(GET_READS,)),
        ],
    )


# --------------------------------------------------------------------------
# B∆: generated (compare with Figure 4d)
# --------------------------------------------------------------------------

def port_spec() -> PortSpec:
    return PortSpec(
        state_map=log_to_kv_mapping(),
        correspondence={"Write": ("Put",), "Read": ("Get",)},
        # Write(i, v) implies Put(k=i, v): the parameter mapping of §4.3.
        param_maps={("Write", "Put"): lambda p: {"k": p["i"], "v": p["v"]}},
    )


def log_store_sized(keys: int = 2, values=("a", "b")) -> SpecMachine:
    """The generated B∆ of Figure 4d."""
    return port_optimization(
        base=kv_store(keys, values),
        optimized=kv_store_sized(keys, values),
        target=log_store(keys, values),
        port=port_spec(),
        name="log-store-sized(B-delta)",
    )


def size_matches_nonempty_entries(state: State, constants) -> bool:
    """The invariant the optimization establishes, carried to B∆:
    size counts exactly the non-empty entries."""
    store = state["logs"] if "logs" in state else state["table"]
    return state["size"] == sum(1 for k in store if store[k] != EMPTY)
