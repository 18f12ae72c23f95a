"""Wire messages: sizes and CPU unit weights."""

from repro.protocols.messages import (
    Accept,
    AppendEntries,
    ClientRequest,
    ForwardBatch,
    MenciusAppend,
    Promise,
    RequestVoteReply,
)
from repro.protocols.types import Ballot, Command, Entry, OpType


def _put(value_size=8):
    return Command(op=OpType.PUT, key="k", value="v", client_id="c", seq=1,
                   value_size=value_size)


def test_client_request_costs_three_units():
    assert ClientRequest(command=_put()).command_count() == 3.0


def test_forward_batch_unit_per_command():
    batch = ForwardBatch(origin="s1", commands=[_put(), _put(), _put()])
    assert batch.command_count() == 3


def test_append_entries_quarter_unit_per_entry():
    entries = [Entry(term=1, command=_put()) for _ in range(8)]
    msg = AppendEntries(term=1, leader="s0", prev_index=-1, prev_term=-1,
                        entries=entries, leader_commit=-1)
    assert msg.command_count() == 2.0


def test_append_entries_size_scales_with_payload():
    small = AppendEntries(term=1, leader="s0", prev_index=-1, prev_term=-1,
                          entries=[Entry(term=1, command=_put(8))], leader_commit=-1)
    large = AppendEntries(term=1, leader="s0", prev_index=-1, prev_term=-1,
                          entries=[Entry(term=1, command=_put(4096))], leader_commit=-1)
    assert large.size_bytes() - small.size_bytes() == 4096 - 8


def test_append_entries_last_index():
    msg = AppendEntries(term=1, leader="s0", prev_index=4, prev_term=1,
                        entries=[Entry(term=1, command=_put())] * 3, leader_commit=-1)
    assert msg.last_index == 7


def test_accept_units():
    msg = Accept(ballot=Ballot(1, "s0"), proposer="s0",
                 instances={0: _put(), 1: _put()}, commit_index=-1)
    assert msg.command_count() == 0.5


def test_mencius_append_units():
    msg = MenciusAppend(sender="s0", owner="s0", ballot=0,
                        items={0: Entry(term=0, command=_put())}, next_own=5,
                        since=0)
    assert msg.command_count() == 0.25


def test_vote_reply_size_includes_extras():
    empty = RequestVoteReply(term=1, voter="s1", granted=True)
    loaded = RequestVoteReply(term=1, voter="s1", granted=True,
                              extra_entries={5: Entry(term=1, command=_put(4096))})
    assert loaded.size_bytes() > empty.size_bytes() + 4000


def test_promise_size_includes_instances():
    empty = Promise(ballot=Ballot(1, "s0"), acceptor="s1", instances={}, log_tail=-1)
    loaded = Promise(ballot=Ballot(1, "s0"), acceptor="s1",
                     instances={0: Entry(term=1, command=_put(1000))}, log_tail=0)
    assert loaded.size_bytes() > empty.size_bytes() + 900
