"""§3's negative result: plain Raft does NOT refine MultiPaxos directly."""

import os
import subprocess
import sys

from repro.core.explorer import Explorer
from repro.core.optimization import diff_optimization
from repro.core.refinement import check_refinement
from repro.specs import multipaxos as mp
from repro.specs import raft as rf
from repro.specs import raftstar as rs


def cfg():
    return mp.default_config(n=3, values=("a",), max_ballot=2, max_index=1)


def test_refinement_fails():
    config = cfg()
    result = check_refinement(
        rf.build(config), mp.build(config), rf.raft_to_multipaxos(config),
        max_states=15_000, max_high_steps=4,
    )
    assert not result.ok


def test_counterexample_is_the_erasing_step():
    """The failing transition erases a previously accepted entry — the step
    the paper says 'would never happen in MultiPaxos'."""
    config = cfg()
    result = check_refinement(
        rf.build(config), mp.build(config), rf.raft_to_multipaxos(config),
        max_states=15_000, max_high_steps=4, max_failures=5,
    )
    erasing = []
    for failure in result.failures:
        before, after = failure.transition.state, failure.transition.next_state
        for acceptor in config["acceptors"]:
            if len(after["rlog"][acceptor]) < len(before["rlog"][acceptor]):
                erasing.append(failure)
    assert erasing, "expected an erasing counterexample"
    assert all(f.transition.action == "AcceptEntries" for f in erasing)


def test_raftstar_minus_raft_is_the_blue_text():
    """`diff_optimization(raft, raftstar)` reads off Figure 2's colouring:
    one new variable, the blue clauses and nothing else — and Raft* is a
    *mutating* change to Raft (the merge writes the log), which is why §3
    needs a refinement proof rather than the §4 port."""
    config = cfg()
    raft = rf.build(config)
    diff = diff_optimization(raft, rs.build(config))
    assert diff.new_variables == rf.BLUE_VARIABLES == ("proposed",)
    black = {action.name: set(action.clauses) for action in raft.actions}
    coloured = {
        clause.name
        for action in diff.optimized.actions
        for clause in action.clauses if clause not in black[action.name]
    }
    assert coloured == set(rf.BLUE) == {
        "merge-extra-entries", "one-value-per-ballot", "add-proposals",
        "no-erase", "send-append", "record-votes"}
    assert {a.name for a in diff.unchanged} == {
        "IncreaseTerm", "RequestVote", "ReceiveVote"}
    assert [m.optimized.name for m in diff.modified] == ["BecomeLeader"]
    assert any("'rlog'" in write and "merge-extra-entries" in write
               for write in diff.mutating_writes())


_REPORT = """
from repro.core.refinement import check_refinement
from repro.specs import multipaxos as mp, raft as rf
config = mp.default_config(n=3, values=("a",), max_ballot=2, max_index=1)
result = check_refinement(rf.build(config), mp.build(config),
                          rf.raft_to_multipaxos(config),
                          max_states=15_000, max_high_steps=4)
print(result.summary())
for failure in result.failures:
    print(failure.describe())
"""


def test_report_does_not_depend_on_the_hash_seed():
    """The check stops at its third failure, so the counts and the
    counterexamples it prints follow the exploration order; both must be
    the same whatever `PYTHONHASHSEED` the interpreter started with."""
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _REPORT], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.pathsep.join(sys.path)})
        for seed in ("1", "4242")
    ]
    reports = [run.communicate()[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert "FAILS" in reports[0] and "AcceptEntries" in reports[0]
    assert reports[0] == reports[1]


def test_raft_spec_itself_is_safe():
    """Raft is still a correct consensus protocol (the §5.4.2 discipline is
    a separate matter) — it just is not a refinement of Paxos."""
    machine = rf.build(mp.default_config(n=3, values=("a",), max_ballot=2,
                                         max_index=0))
    result = Explorer(machine, invariants={
        "election-safety": rs.INVARIANTS["election-safety"]},
        max_states=30_000).run()
    assert result.ok
