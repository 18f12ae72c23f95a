"""Closed-loop clients."""

from repro.metrics.recorder import MetricsRecorder
from repro.protocols.messages import ClientReply, ClientRequest
from repro.protocols.types import OpType
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node, NodeCosts
from repro.sim.rng import SplitRng
from repro.sim.topology import symmetric_lan
from repro.sim.units import ms, sec
from repro.workload.clients import ClosedLoopClient, RetryPolicy
from repro.workload.plan import ClientPlan
from repro.workload.ycsb import WorkloadConfig

#: No growth, no jitter: the fixed 20 ms backoff / 5 s resend schedule the
#: send counts below assume.
FIXED_RETRY = RetryPolicy(multiplier=1.0, jitter=0.0)


class InstantServer(Node):
    """Replies to every request immediately; optionally fails first.

    `fail_first` rejects the first N requests (ok=False — the no-leader
    answer), `drop_first` swallows them entirely (reply loss), and
    `duplicate_replies` sends every reply twice.
    """

    def __init__(self, *args, fail_first=0, drop_first=0,
                 duplicate_replies=False, **kwargs):
        kwargs.setdefault("costs", NodeCosts(per_message=0, per_command=0, per_byte=0))
        super().__init__(*args, **kwargs)
        self.seen = 0
        self.fail_first = fail_first
        self.drop_first = drop_first
        self.duplicate_replies = duplicate_replies
        self.request_log = []

    def on_message(self, src, message):
        if not isinstance(message, ClientRequest):
            return
        self.seen += 1
        self.request_log.append(message.command.request_id)
        if self.seen <= self.drop_first:
            return
        ok = self.seen > self.fail_first
        reply = ClientReply(
            request_id=message.command.request_id, ok=ok,
            value="x", server=self.name)
        self.send(src, reply)
        if self.duplicate_replies:
            self.send(src, reply)


def build(fail_first=0, read_fraction=0.5, retry=None, depth=1,
          **server_kwargs):
    sim = Simulator()
    net = Network(sim, symmetric_lan(2, rtt_ms_value=1.0), rng=SplitRng(2),
                  config=NetworkConfig())
    server = InstantServer("s0", sim, net, fail_first=fail_first, **server_kwargs)
    metrics = MetricsRecorder()
    client = ClosedLoopClient(
        "c0", sim, net, "s0", "s0",
        WorkloadConfig(read_fraction=read_fraction, conflict_rate=0.0, records=10),
        ["s0", "s1"], SplitRng(3).stream("c"), metrics,
        retry=retry, depth=depth)
    return sim, server, client, metrics


def test_closed_loop_issues_back_to_back():
    sim, server, client, metrics = build()
    sim.run(until=ms(200))
    assert client.completed > 50  # ~1 op per RTT(1ms)
    assert len(metrics.records) == client.completed


def test_failed_reply_retried_with_same_seq():
    sim, server, client, metrics = build(fail_first=2)
    sim.run(until=ms(200))
    assert client.completed > 0
    # the first command was retried, not skipped
    assert metrics.records[0].client == "c0"


def test_no_leader_rejection_backs_off_and_retries_same_request():
    sim, server, client, metrics = build(fail_first=3)
    sim.run(until=ms(300))
    # the rejected command was re-sent with the SAME request id until it
    # succeeded — at-most-once needs the seq to survive the retries
    first_id = server.request_log[0]
    assert server.request_log[:4] == [first_id] * 4
    assert client.completed > 0
    # no sequence number was burned by the rejections
    assert client.seq == client.completed + (1 if client.in_flight else 0)


def test_lost_reply_retried_after_timeout():
    sim, server, client, metrics = build(drop_first=1)
    sim.run(until=sec(6))  # the default retry timeout is 5 s
    assert client.completed > 0
    # the dropped request was re-sent, not abandoned
    assert server.request_log.count(server.request_log[0]) == 2


def test_duplicate_rejections_collapse_into_one_resend():
    """Regression: every matching ok=False reply used to schedule another
    *anonymous* backoff callback, so a rejection delivered twice (a
    retransmit answered twice, or a rejection racing the 5 s retry timer)
    permanently doubled the in-flight sends.  The per-request backoff
    timer (`arm` replaces) collapses duplicates into one pending resend.
    (FIXED_RETRY pins the fixed 20 ms schedule the counts assume.)"""
    sim, server, client, metrics = build(drop_first=10**9,  # server stays mute
                                         retry=FIXED_RETRY)
    sim.run(until=ms(20))
    assert server.seen == 1
    request_id = client.in_flight.request_id
    # Two rejections for the same in-flight request.
    for _ in range(2):
        server.send("c0", ClientReply(request_id=request_id, ok=False,
                                      server="s0"))
    sim.run(until=ms(200))
    # Exactly ONE backoff resend (pre-fix: one per delivered rejection).
    assert server.seen == 2
    assert server.request_log == [request_id, request_id]


def test_many_duplicate_rejections_still_one_resend_per_round():
    """The multiplied-rejection storm: every rejection answered twice for
    many rounds must still produce one resend per ~20 ms backoff round,
    not an exponentially growing herd.  (FIXED_RETRY pins the fixed
    20 ms backoff rounds the send counts assume.)"""
    sim, server, client, metrics = build(fail_first=8, duplicate_replies=True,
                                         retry=FIXED_RETRY)
    sim.run(until=ms(400))
    assert client.completed >= 1
    first_id = server.request_log[0]
    # 8 rejection rounds -> 9 sends of the first command (pre-fix the
    # doubling herd pushes this past a dozen within the same window).
    assert server.request_log.count(first_id) == 9
    assert len(metrics.records) == client.completed


def test_duplicate_replies_complete_once():
    sim, server, client, metrics = build(duplicate_replies=True)
    sim.run(until=ms(200))
    assert client.completed > 0
    # every duplicate was ignored: one metrics record per issued command
    assert len(metrics.records) == client.completed
    seqs = [record_id for record_id in server.request_log]
    assert len(set(seqs)) == len(seqs)  # no request was ever re-sent either


def test_records_have_latency():
    sim, server, client, metrics = build()
    sim.run(until=ms(50))
    rec = metrics.records[0]
    assert rec.end > rec.start
    assert rec.latency_ms > 0


def test_read_write_mix_roughly_respected():
    sim, server, client, metrics = build(read_fraction=0.8)
    sim.run(until=sec(1))
    reads = sum(1 for r in metrics.records if r.op is OpType.GET)
    frac = reads / len(metrics.records)
    assert 0.7 < frac < 0.9


def test_stop_at_halts_generation():
    sim, server, client, metrics = build()
    client.stop_at = ms(50)
    sim.run(until=ms(200))
    assert all(r.start <= ms(51) for r in metrics.records)


def test_spawn_clients_per_region():
    sim = Simulator()
    net = Network(sim, symmetric_lan(2, rtt_ms_value=1.0), rng=SplitRng(2))
    InstantServer("s0", sim, net)
    InstantServer("s1", sim, net)
    metrics = MetricsRecorder()
    clients = ClientPlan(per_region=3).spawn(
        ["s0", "s1"], SplitRng(1),
        lambda name, site, rng, **knobs: ClosedLoopClient(
            name, sim, net, site, site, WorkloadConfig(records=10),
            ["s0", "s1"], rng, metrics, **knobs))
    assert len(clients) == 6
    assert {c.site for c in clients} == {"s0", "s1"}
