"""One quorum rule per leadered family, from the founding view on
(DESIGN.md §13).

A Raft replica boots with `VoterView.stable` over its founding members and
a MultiPaxos replica with a `ConfigLog` over them, so every count runs
through the same object before and after a config change:

* the Raft leader's per-group commit count (each voter group's records
  other than self, one sort per group) equals the reference
  `VoterView.commit_index` on random match vectors, stable and joint, with
  the leader in one group or both;
* a MultiPaxos leader keeps at most α slots open past its commit frontier
  from slot 0 on, not only once a first change is decided.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.membership import DEFAULT_ALPHA, VoterView  # noqa: E402
from repro.protocols.multipaxos import MultiPaxosReplica  # noqa: E402
from repro.protocols.raft import RaftReplica  # noqa: E402
from repro.protocols.types import Command, OpType  # noqa: E402
from tests.protocols.conftest import MiniCluster  # noqa: E402

SELF = "s0"
OTHERS = [f"s{i}" for i in range(1, 7)]
others = st.frozensets(st.sampled_from(OTHERS), max_size=len(OTHERS))


@st.composite
def views(draw):
    """A stable view holding the leader, or a joint one with the leader in
    Cold only, Cnew only, or both."""
    phase = draw(st.sampled_from(["stable", "old", "new", "both"]))
    old = draw(others)
    if phase == "stable":
        return VoterView.stable(old | {SELF})
    new = draw(others)
    if phase in ("old", "both"):
        old |= {SELF}
    if phase in ("new", "both"):
        new |= {SELF}
    if not old:
        old = frozenset(OTHERS[:1])
    if not new:
        new = frozenset(OTHERS[:1])
    return VoterView.joint(old, new, epoch=1)


@settings(deadline=None, max_examples=150)
@given(view=views(), appended=st.integers(min_value=0, max_value=8),
       data=st.data())
def test_leader_commit_count_equals_the_view_commit_index(view, appended,
                                                          data):
    cluster = MiniCluster(RaftReplica, n=1 + len(OTHERS), leader=None)
    leader = cluster[SELF]
    leader._voters = view
    leader._assume_leadership(initial=True)
    for seq in range(appended):
        leader._append_to_log(Command(op=OpType.NOP, client_id="probe",
                                      seq=seq + 1, value_size=0))
    last = leader.last_index
    matches = {name: data.draw(st.integers(min_value=-1, max_value=last),
                               label=name)
               for name in OTHERS}
    for name, match in matches.items():
        leader._peer(name).match_index = match
    expected = view.commit_index(
        lambda name: last if name == SELF else matches[name])

    leader._leader_advance_commit()

    assert leader.commit_index == expected


def test_multipaxos_holds_the_alpha_window_from_slot_zero():
    """Handed α + 10 commands before anything commits, the leader opens
    slots 0..α-1 only, defers the rest, and drains them as the frontier
    advances — no Accept ever carries a slot past frontier + α."""
    cluster = MiniCluster(MultiPaxosReplica, n=3, leader=SELF)
    leader = cluster[SELF]
    highest = []
    accept_locally = leader._accept_locally

    def checked(message):
        highest.append(max(message.instances) - leader.commit_index)
        accept_locally(message)
    leader._accept_locally = checked

    total = DEFAULT_ALPHA + 10
    for i in range(total):
        leader.submit_command(Command(op=OpType.PUT, key=f"k{i}", value="v",
                                      client_id=f"c{i}", seq=1))
    assert leader.next_instance == DEFAULT_ALPHA
    assert len(leader._deferred_commands) == 10

    cluster.run_ms(500)

    assert not leader._deferred_commands
    assert highest and max(highest) <= DEFAULT_ALPHA
    for replica in cluster.values():
        assert replica.last_applied == total - 1
        assert replica.store.read_local(f"k{total - 1}") == "v"
