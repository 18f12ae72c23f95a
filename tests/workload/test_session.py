"""The pipelined session: window, out-of-order completion, retry policy,
consistency plumbing, and the acked low-water mark."""

import pytest

from repro.metrics.recorder import MetricsRecorder
from repro.protocols.messages import ClientReply, ClientRequest
from repro.protocols.types import Consistency, OpType
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node, NodeCosts
from repro.sim.rng import SplitRng
from repro.sim.topology import symmetric_lan
from repro.sim.units import ms, sec
from repro.workload.clients import ClosedLoopClient
from repro.workload.session import RetryPolicy, Session
from repro.workload.ycsb import WorkloadConfig

WORKLOAD = WorkloadConfig(read_fraction=0.5, conflict_rate=0.0, records=10)


class WindowServer(Node):
    """Replies instantly; can hold requests and release them in any order."""

    def __init__(self, *args, hold=False, **kwargs):
        kwargs.setdefault("costs", NodeCosts(per_message=0, per_command=0, per_byte=0))
        super().__init__(*args, **kwargs)
        self.hold = hold
        self.held = []          # (src, command) in arrival order
        self.request_log = []   # request ids in arrival order
        self.commands = []      # full commands in arrival order
        self.seen = 0

    def on_message(self, src, message):
        if not isinstance(message, ClientRequest):
            return
        self.seen += 1
        self.request_log.append(message.command.request_id)
        self.commands.append(message.command)
        if self.hold:
            self.held.append((src, message.command))
            return
        self._reply(src, message.command)

    def _reply(self, src, command, ok=True):
        self.send(src, ClientReply(request_id=command.request_id, ok=ok,
                                   value="x", server=self.name))

    def release(self, order=None):
        """Answer the held requests (optionally by given hold-indices)."""
        held, self.held = self.held, []
        if order is not None:
            held = [held[i] for i in order]
        for src, command in held:
            self._reply(src, command)


def build(depth=1, client_cls=ClosedLoopClient, hold=False, retry=None,
          **client_kwargs):
    sim = Simulator()
    net = Network(sim, symmetric_lan(2, rtt_ms_value=1.0), rng=SplitRng(2),
                  config=NetworkConfig())
    server = WindowServer("s0", sim, net, hold=hold)
    metrics = MetricsRecorder()
    client = client_cls(
        "c0", sim, net, "s0", "s0", WORKLOAD, ["s0", "s1"],
        SplitRng(3).stream("c"), metrics, depth=depth, retry=retry,
        **client_kwargs)
    return sim, server, client, metrics


# -- the pipeline window ------------------------------------------------------


def test_depth_n_keeps_n_in_flight():
    sim, server, client, metrics = build(depth=4, hold=True)
    sim.run(until=ms(20))
    assert server.seen == 4          # the window filled without any ack
    assert client.in_flight_count == 4
    assert client.seq == 4
    server.hold = False
    server.release()
    sim.run(until=ms(40))
    assert client.completed >= 4     # completions refilled the window


def test_depth_one_is_the_closed_loop_client():
    sim, server, client, metrics = build(depth=1, hold=True)
    sim.run(until=ms(20))
    assert server.seen == 1
    assert client.in_flight is not None


def test_out_of_order_replies_complete_out_of_order():
    sim, server, client, metrics = build(depth=3, hold=True)
    sim.run(until=ms(10))
    assert server.seen == 3
    server.release(order=[2, 0, 1])  # newest first
    sim.run(until=ms(12))
    # All three completed despite reversed replies; no retries happened.
    assert client.completed >= 3
    seqs = {record_id for record_id in server.request_log}
    assert len(seqs) == len(server.request_log)


def test_pipelined_throughput_scales_with_depth():
    results = {}
    for depth in (1, 4):
        sim, server, client, metrics = build(depth=depth)
        sim.run(until=ms(200))
        results[depth] = client.completed
    assert results[4] > 2.5 * results[1]


def test_stale_reply_for_retired_seq_is_discarded():
    sim, server, client, metrics = build(depth=2, hold=True)
    sim.run(until=ms(10))
    (src, first) = server.held[0]
    server.release()
    sim.run(until=ms(15))
    completed = client.completed
    # A late retransmitted reply for an already-completed request.
    server._reply(src, first)
    sim.run(until=ms(20))
    assert len(metrics.records) == client.completed
    assert client.completed >= completed  # no double-completion record


def test_commands_carry_acked_low_water():
    sim, server, client, metrics = build(depth=2)
    sim.run(until=ms(100))
    # After a warm-up, new commands advertise the contiguous acked floor:
    # every stamp is below its own seq and non-decreasing.
    stamps = [(c.seq, c.acked_low_water) for c in server.commands]
    assert all(lwm < seq for seq, lwm in stamps)
    floors = [lwm for _, lwm in stamps]
    assert floors == sorted(floors)
    assert floors[-1] > 0  # it actually advanced


def test_crash_clears_window():
    sim, server, client, metrics = build(depth=3, hold=True)
    sim.run(until=ms(10))
    client.crash()
    assert client.in_flight_count == 0
    server.release()  # replies to a crashed client go nowhere
    sim.run(until=ms(20))
    assert client.completed == 0


# -- explicit API: get/put/batch and consistency ------------------------------


def manual_session(depth=4):
    sim = Simulator()
    net = Network(sim, symmetric_lan(2, rtt_ms_value=1.0), rng=SplitRng(2),
                  config=NetworkConfig())
    server = WindowServer("s0", sim, net)
    metrics = MetricsRecorder()
    session = Session("c0", sim, net, "s0", "s0", WORKLOAD, ["s0", "s1"],
                      SplitRng(3).stream("c"), metrics, depth=depth)
    return sim, server, session


def test_get_put_batch_pipeline_through_the_window():
    sim, server, session = manual_session(depth=4)
    done = []
    session.put("a", "1", on_done=lambda c, r: done.append(c.key))
    session.get("a", on_done=lambda c, r: done.append(c.key))
    session.batch([("put", "b", "2"), ("get", "b", None)])
    sim.run(until=ms(10))
    assert session.completed == 4
    assert done == ["a", "a"]
    ops = [(c.op, c.key) for c in server.commands]
    assert (OpType.PUT, "a") in ops and (OpType.GET, "b") in ops


def test_consistency_levels_ride_the_command():
    sim, server, session = manual_session()
    session.get("k")
    session.get("k", consistency=Consistency.LINEARIZABLE)
    sim.run(until=ms(10))
    levels = [c.consistency for c in server.commands]
    assert levels == [Consistency.DEFAULT, Consistency.LINEARIZABLE]
    assert server.commands[0].allows_local_read
    assert not server.commands[1].allows_local_read


def test_submit_queue_overflows_the_window_and_drains():
    sim, server, session = manual_session(depth=2)
    for i in range(6):
        session.put(f"k{i}", str(i))
    assert session.in_flight_count == 2
    assert session.queued_count == 4
    assert session.outstanding == 6
    sim.run(until=ms(20))
    assert session.completed == 6
    assert session.queued_count == 0


def test_one_record_and_one_timer_per_operation(monkeypatch):
    """An operation is one record from submission to ack, and admitting it
    creates one timer: the lost-reply resend and the rejection backoff
    share it, so a rejection and its backoff resend create none."""
    timers = []
    real = Session.timer

    def counting(self, name):
        timers.append(name)
        return real(self, name)

    monkeypatch.setattr(Session, "timer", counting)
    sim, server, session = manual_session(depth=2)
    server.hold = True
    for i in range(3):
        session.put(f"k{i}", str(i))
    queued = session._submit_queue[0]
    assert len(timers) == 2
    sim.run(until=ms(5))
    (src, rejected), answered = server.held[0], server.held[1:]
    server.held, server.hold = [], False
    server._reply(src, rejected, ok=False)
    for src, command in answered:
        server._reply(src, command)
    sim.run(until=ms(200))
    assert session.completed == 3
    assert server.request_log.count(rejected.request_id) == 2
    assert len(timers) == 3
    # The queued record is the one that was admitted and answered.
    assert queued.command.key == "k2" and queued.attempts == 1


def test_transact_needs_a_routing_policy():
    sim, server, session = manual_session()
    with pytest.raises(NotImplementedError):
        session.transact([("put", "a", "1")])


# -- retry policy -------------------------------------------------------------


class FakeRng:
    """random() == 0.5 always -> jitter factor exactly 1.0."""

    def random(self):
        return 0.5


def test_retry_policy_exponential_growth_and_caps():
    policy = RetryPolicy(retry_timeout=sec(5), retry_cap=sec(20),
                         backoff_base=ms(20), backoff_cap=ms(320),
                         multiplier=2.0, jitter=0.1)
    rng = FakeRng()
    assert policy.retry_delay(0, rng) == sec(5)
    assert policy.retry_delay(1, rng) == sec(10)
    assert policy.retry_delay(5, rng) == sec(20)      # capped
    assert policy.backoff_delay(1, rng) == ms(20)
    assert policy.backoff_delay(2, rng) == ms(40)
    assert policy.backoff_delay(10, rng) == ms(320)   # capped


def test_retry_policy_jitter_spreads_delays():
    policy = RetryPolicy(jitter=0.5)
    rng = SplitRng(7).stream("jitter")
    delays = {policy.backoff_delay(1, rng) for _ in range(50)}
    assert len(delays) > 10  # jitter actually spreads
    base = policy.backoff_base
    assert all(base * 0.5 <= d <= base * 1.5 for d in delays)


def test_legacy_retry_is_fixed_schedule():
    fixed = RetryPolicy(multiplier=1.0, jitter=0.0)
    rng = SplitRng(7).stream("jitter")
    assert {fixed.backoff_delay(n, rng) for n in range(1, 9)} == {ms(20)}
    assert fixed.retry_delay(3, rng) == sec(5)


def test_rejection_storm_desynchronizes_with_jittered_backoff():
    """A whole window rejected at once must not retry in lockstep: with
    jittered exponential backoff the resends spread out in time."""
    sim, server, client, metrics = build(
        depth=8, hold=True,
        retry=RetryPolicy(jitter=0.5))
    sim.run(until=ms(10))
    held, server.held = server.held, []
    server.hold = False
    for src, command in held:  # reject the whole window at once
        server._reply(src, command, ok=False)
    before = len(server.request_log)
    sim.run(until=ms(120))
    resends = server.request_log[before:]
    assert len(resends) >= 8
    # the resends did not all land in one burst: the server saw them
    # arrive over a spread of distinct times (jitter at work)
    assert len(set(resends)) >= 8


# -- open loop ----------------------------------------------------------------


def build_open(rate, depth=4, stop_at=None):
    sim = Simulator()
    net = Network(sim, symmetric_lan(2, rtt_ms_value=1.0), rng=SplitRng(2),
                  config=NetworkConfig())
    server = WindowServer("s0", sim, net)
    metrics = MetricsRecorder()
    client = ClosedLoopClient(
        "c0", sim, net, "s0", "s0", WORKLOAD, ["s0", "s1"],
        SplitRng(3).stream("c"), metrics, rate_per_sec=rate, depth=depth,
        stop_at=stop_at)
    return sim, server, client, metrics


@pytest.mark.parametrize("rate", [0, -1])
def test_open_loop_rate_must_be_positive(rate):
    with pytest.raises(ValueError, match="rate_per_sec"):
        build_open(rate=rate)


def test_open_loop_arrival_rate_is_respected():
    sim, server, client, metrics = build_open(rate=200.0)
    sim.run(until=sec(2))
    # ~400 Poisson arrivals in 2 s; allow generous slack
    assert 250 <= client.arrivals <= 560
    assert client.completed >= 0.9 * client.arrivals


def test_open_loop_queues_past_the_window_and_measures_from_submission():
    sim, server, client, metrics = build_open(rate=2000.0, depth=2)
    server.hold = True
    sim.run(until=ms(100))
    assert client.in_flight_count == 2
    assert client.queued_count > 50       # arrivals kept coming
    server.hold = False
    server.release()
    sim.run(until=ms(400))
    assert client.completed > 100
    # Queued requests' latency includes the time spent waiting for a slot.
    slow = [r for r in metrics.records if r.latency_ms > 20]
    assert slow


def test_open_loop_stops_generating_at_stop_at():
    sim, server, client, metrics = build_open(rate=500.0, stop_at=ms(100))
    sim.run(until=ms(400))
    arrivals_at_stop = client.arrivals
    sim.run(until=ms(600))
    assert client.arrivals == arrivals_at_stop
