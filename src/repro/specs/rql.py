"""Raft*-PQL (Appendix B.4), **generated** by the porting algorithm.

This module does not hand-write the optimized protocol: it calls
`core.porting.port_optimization` with

  A  = MultiPaxos (B.1)      A∆ = PQL (B.3)
  B  = Raft* (B.2)           f  = the Figure 3 mapping

and returns B∆ = Raft*-PQL.  The correspondence is the Figure 3 function
table (`specs.mapping`); the expansions add its one-to-many cases (one Raft*
`ProposeEntries`/`AcceptEntries` step implies a Paxos `Propose`/`Accept`
step per covered index).

Because PQL's lease machinery reads MultiPaxos state only through derived
notions (`CanCommitAt`, `LeaseIsActive`), the ported subactions evaluate
those notions *through the refinement mapping* — e.g. the ported `Apply`
checks `CanCommitAt` over the mapped `votes`, which is exactly the
`commitIndex`-based condition of Figure 8 expressed at the spec level.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.core.machine import SpecMachine
from repro.core.porting import (
    PortSpec,
    port_optimization,
    ported_to_optimized_mapping,
    ported_to_target_mapping,
)
from repro.core.refinement import RefinementMapping
from repro.specs import multipaxos as mp
from repro.specs import pql
from repro.specs import raftstar as rs
from repro.specs.mapping import SPEC_CORRESPONDENCE


def expansions(constants) -> Dict[tuple, Any]:
    """One Raft* step -> the list of Paxos bindings it implies."""

    def propose_entries(state, binding) -> List[Mapping]:
        a, v = binding["a"], binding["v"]
        log = state["rlog"][a]
        out = [
            {"a": a, "i": j, "v": log[j][1]} for j in range(len(log))
        ]
        out.append({"a": a, "i": len(log), "v": v})
        return out

    def accept_entries(state, binding) -> List[Mapping]:
        a, pe = binding["a"], binding["pe"]
        term, entries = pe
        return [
            {"a": a, "pv": (j, term, entry[1])}
            for j, entry in enumerate(entries)
        ]

    def become_leader(state, binding) -> List[Mapping]:
        a, S = binding["a"], binding["S"]
        mapped = frozenset(
            (m[0], m[1], rs.log_as_instances(constants, m[2])) for m in S
        )
        return [{"a": a, "S": mapped}]

    return {
        ("ProposeEntries", "Propose"): propose_entries,
        ("AcceptEntries", "Accept"): accept_entries,
        ("BecomeLeader", "BecomeLeader"): become_leader,
    }


def port_spec(constants) -> PortSpec:
    return PortSpec(
        state_map=rs.raftstar_to_multipaxos(constants),
        correspondence=SPEC_CORRESPONDENCE,
        expansions=expansions(constants),
    )


def build(constants: Dict[str, Any] = None) -> SpecMachine:
    """Generate Raft*-PQL."""
    constants = constants or pql.default_config()
    A = mp.build(constants)
    A_delta = pql.build(constants)
    B = rs.build(constants)
    return port_optimization(A, A_delta, B, port_spec(constants), name="RaftStar-PQL")


def mapping_to_pql(constants) -> RefinementMapping:
    """B∆ ⇒ A∆ (Figure 5, left edge)."""
    A = mp.build(constants)
    A_delta = pql.build(constants)
    B = rs.build(constants)
    return ported_to_optimized_mapping(port_spec(constants), A, A_delta, B)


def mapping_to_raftstar(constants) -> RefinementMapping:
    """B∆ ⇒ B (Figure 5, bottom edge)."""
    return ported_to_target_mapping(rs.build(constants))


# -- invariants carried over from PQL, evaluated on the ported state --------------

def lease_invariants(constants) -> Dict[str, Any]:
    """PQL's invariants, evaluated on Raft*-PQL states through the
    refinement mapping (B∆ inherits A∆'s invariants — §4.3 Correctness)."""
    mapping = rs.raftstar_to_multipaxos(constants)
    raftstar_vars = rs.build(constants).variables

    def combined(state):
        mapped = mapping(state.restrict(raftstar_vars))
        return mapped.assign({v: state[v] for v in pql.NEW_VARIABLES})

    return {
        "lease-safe": lambda s, c: pql.lease_safe(combined(s), c),
        "reads-see-chosen-prefix":
            lambda s, c: pql.reads_see_chosen_prefix(combined(s), c),
    }
