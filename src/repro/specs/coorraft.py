"""Coordinated Raft* / Raft*-Mencius (Appendix B.6), **generated** by the
porting algorithm.

B∆ = port(A = MultiPaxos, A∆ = Coordinated Paxos, B = Raft*, f = Figure 3).

This port is the paper's showcase for why hand-porting goes wrong (§4.4 /
A.4): Paxos' `Phase2b` is implied by *two* Raft* subactions — the leader's
local append inside `ProposeEntries`+`AcceptEntries` on itself, and the
follower-side `AcceptEntries` — and a batched append implies one `Accept`
per entry.  The expansion machinery applies Mencius' Phase2b clauses to
every implied step, so no case is missed ("if the handworked solution only
applies changes on Phase2b to ReceiveAppend ... the solution could miss
some optimization opportunities or even generate an incorrect protocol").
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.machine import SpecMachine
from repro.core.porting import (
    PortSpec,
    port_optimization,
    ported_to_optimized_mapping,
    ported_to_target_mapping,
)
from repro.core.refinement import RefinementMapping
from repro.specs import coorpaxos
from repro.specs import multipaxos as mp
from repro.specs import raftstar as rs
from repro.specs import rql
from repro.specs.mapping import SPEC_CORRESPONDENCE


def port_spec(constants) -> PortSpec:
    """Same Figure 3 correspondence/expansions as the PQL port, plus the
    parameter mapping ReceiveVote.m -> Phase1b.m (the Mencius diff modifies
    Phase1b, which reads its message parameter)."""
    spec = PortSpec(
        state_map=rs.raftstar_to_multipaxos(constants),
        correspondence=SPEC_CORRESPONDENCE,
        expansions=rql.expansions(constants),
        param_maps={
            # requestVote (candidate, term, lastIdx, lastBal) -> prepare
            # (proposer, ballot): the Figure 3 message mapping.
            ("ReceiveVote", "Phase1b"): lambda p: {"m": (p["m"][0], p["m"][1])},
        },
    )
    return spec


def build(constants: Dict[str, Any] = None) -> SpecMachine:
    constants = constants or coorpaxos.default_config()
    A = mp.build(constants)
    A_delta = coorpaxos.build(constants)
    B = rs.build(constants)
    return port_optimization(A, A_delta, B, port_spec(constants),
                             name="CoordinatedRaftStar")


def mapping_to_coorpaxos(constants) -> RefinementMapping:
    A = mp.build(constants)
    A_delta = coorpaxos.build(constants)
    B = rs.build(constants)
    return ported_to_optimized_mapping(port_spec(constants), A, A_delta, B)


def mapping_to_raftstar(constants) -> RefinementMapping:
    return ported_to_target_mapping(rs.build(constants))


def mencius_invariants(constants) -> Dict[str, Any]:
    """Coordinated Paxos' invariants evaluated on the ported state."""
    mapping = rs.raftstar_to_multipaxos(constants)
    raftstar_vars = rs.build(constants).variables

    def combined(state):
        mapped = mapping(state.restrict(raftstar_vars))
        return mapped.assign({v: state[v] for v in coorpaxos.NEW_VARIABLES})

    return {
        "executable-consistent":
            lambda s, c: coorpaxos.executable_consistent(combined(s), c),
        "skip-tags-sound":
            lambda s, c: coorpaxos.skip_tags_sound(combined(s), c),
    }
