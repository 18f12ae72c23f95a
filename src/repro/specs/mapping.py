"""Figure 3: the mapping between Raft* and MultiPaxos, as data.

The table is the paper's tabular artifact for §3; `render()` regenerates it
(see `benchmarks/test_fig3_mapping.py`).  `SPEC_CORRESPONDENCE` is its
*function* section at the granularity of the executable specs, and the only
statement of it: the refinement mapping's `action_map`
(`raftstar.raftstar_to_multipaxos`) and the correspondence input of both
ports (`rql.port_spec`, `coorraft.port_spec`) read it from here, and
`tests/specs` checks it against the two specs' action names and against
what the Appendix C refinement run observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class MappingRow:
    section: str  # variables | messages | functions
    raftstar: str
    multipaxos: str
    note: str = ""


FIGURE3: Tuple[MappingRow, ...] = (
    # variables (per server)
    MappingRow("variables", "Quorums", "Quorums", "constant"),
    MappingRow("variables", "currentTerm", "ballot"),
    MappingRow("variables", "isLeader", "phase1Succeeded"),
    MappingRow("variables", "entries with index <= commitIndex", "chosenSet"),
    # variables (per instance)
    MappingRow("variables", "entry.index", "instance.id"),
    MappingRow("variables", "entry.val", "instance.val"),
    MappingRow("variables", "entry.bal", "instance.bal"),
    # messages
    MappingRow("messages", "requestVote", "prepare"),
    MappingRow("messages", "requestVoteOK", "prepareOK"),
    MappingRow("messages", "(im/ex) append", "accept", "im = implicit (self)"),
    MappingRow("messages", "(im/ex) appendOK", "acceptOK", "im = implicit (self)"),
    # functions
    MappingRow("functions", "RequestVote", "Phase1a"),
    MappingRow("functions", "RecieveVote", "Phase1b"),
    MappingRow("functions", "BecomeLeader", "Phase1Succeed + Phase2a + Phase2b"),
    MappingRow("functions", "AppendEntries", "Phase2a + Phase2b"),
    MappingRow("functions", "RecieveAppend", "Phase2b"),
    MappingRow("functions", "LeaderLearn", "Learn"),
)


def rows(section: str = None) -> List[MappingRow]:
    if section is None:
        return list(FIGURE3)
    return [row for row in FIGURE3 if row.section == section]


def render() -> str:
    """The Figure 3 table, paper-style."""
    lines = ["Figure 3: Mapping between Raft* and MultiPaxos",
             "=" * 60]
    for section in ("variables", "messages", "functions"):
        lines.append(f"\n[{section}]")
        lines.append(f"{'Raft*':<38} {'MultiPaxos':<30}")
        lines.append("-" * 60)
        for row in rows(section):
            note = f"  ({row.note})" if row.note else ""
            lines.append(f"{row.raftstar:<38} {row.multipaxos:<30}{note}")
    return "\n".join(lines)


#: Figure 3's function rows as Raft* action -> the MultiPaxos actions one
#: step of it implies (append/accept messages are folded into the
#: propose/accept subactions; LeaderLearn/Learn is derived, not an action).
SPEC_CORRESPONDENCE: Dict[str, Tuple[str, ...]] = {
    "IncreaseTerm": ("IncreaseHighestBallot",),
    "RequestVote": ("Phase1a",),
    "ReceiveVote": ("Phase1b",),
    "BecomeLeader": ("BecomeLeader",),
    "ProposeEntries": ("Propose",),
    "AcceptEntries": ("Accept",),
}
