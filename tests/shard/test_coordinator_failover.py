"""Coordinator failover: machine-granular kills of the ACTIVE coordinator
while its plane is mid-flight.

`test_nemesis_reshard.py` / `test_nemesis_txn.py` throw random faults at
the data groups; these tests aim the fault at the coordinators themselves
— the host under the lease-holding reshard driver, the host under a txn
coordinator with 2PC in flight — and pin the failover design of
DESIGN.md §11:

* a hot standby claims the role through the control journal within
  milliseconds of lease expiry (not after the machine's restart);
* the resumed plan/sweep is idempotent end to end: zero lost or duplicated
  acks, zero duplicate executions, strict serializability;
* the reshard send-ring rotates off a dead first-hop host instead of
  wedging (the PR's motivating bug);
* each coordinator incarnation numbers its 2PC commands from one counter
  in one dedup session, which a restart replaces.

`REPRO_BENCH_SCALE` (default 0.3: fault tests, not benchmarks) scales
client counts and durations, matching the CI nemesis leg.
"""

import os

from repro.protocols.types import OpType
from repro.bench.experiments import txn_spec as bench_txn_spec
from repro.bench.live import ReshardSpec, run_reshard_experiment
from repro.shard.cluster import ShardedCluster
from repro.shard.nemesis import Nemesis
from repro.shard.txn import TxnCluster, TxnSpec
from repro.sim.units import ms, sec
from repro.workload.ycsb import WorkloadConfig
from tests.shard.test_txn_reshard import lost_installs

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))

WORKLOAD = WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                          records=400, value_size=64)


def txn_spec(seed: int, **overrides) -> TxnSpec:
    defaults = dict(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=max(2, round(2 * SCALE / 0.3)),
        workload=WORKLOAD,
        duration_s=max(10.0, 10.0 * SCALE / 0.3),
        warmup_s=1.0, cooldown_s=0.5, seed=seed,
        check_history=True, txn_size=2, cross_shard_ratio=0.6,
    )
    defaults.update(overrides)
    return TxnSpec(**defaults)


def assert_txn_contract(result) -> None:
    assert result.serializability_violations == []
    assert all(not v for v in result.prefix_violations.values())
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0


def first_takeover_latency_ms(nemesis, takeovers) -> float:
    """Wall time from the first host kill to the first role takeover."""
    kill_s = next(at_s for at_s, what in nemesis.log
                  if what.startswith("host_kill: crashed"))
    taken_at = min(at for at, _role in takeovers)
    return taken_at / 1e3 - kill_s * 1e3


# -- one dedup session per coordinator incarnation ---------------------------


def test_each_incarnation_numbers_its_2pc_commands_from_one_counter():
    """Every 2PC command one coordinator incarnation sends takes the next
    seq of one counter under one client id, with an acked low-water one
    below its oldest open slot at that shard; once its attempts are done
    no slot is open.  A restart opens the next incarnation's session,
    numbered from stable storage, and its counter starts over."""
    cluster = TxnCluster(txn_spec(0, duration_s=4.0, clients_per_region=0))
    coordinator = cluster.coordinators[0]
    shard_of = cluster.partitioner.shard_of
    keys = {0: [], 1: []}
    for key_id in range(1000):
        key = f"k{key_id}"
        if len(keys[shard_of(key)]) < 2:
            keys[shard_of(key)].append(key)
    sent = []
    send = coordinator.send

    def capture(dst, message):
        command = getattr(message, "command", None)
        if command is not None and command.client_id.startswith("__txn__:"):
            sent.append(command)
        send(dst, message)
    coordinator.send = capture
    for n in (1, 2):
        cluster.sim.schedule(ms(10), coordinator._start_attempt, f"c:{n}",
                             None, [["put", keys[0][n - 1], "v"],
                                    ["put", keys[1][n - 1], "v"]], n)
    cluster.sim.run(until=sec(1.5))

    assert coordinator.commits == 2
    assert {c.client_id for c in sent} == {f"__txn__:{coordinator.name}.1"}
    firsts = list({c.seq: c for c in sent}.values())
    assert [c.seq for c in firsts] == list(range(1, len(firsts) + 1))
    # Both attempts' prepares are out before any answer: the second
    # attempt's low-water waits below the first's open slot at each shard.
    assert [(c.op, c.acked_low_water) for c in firsts[:4]] == [
        (OpType.TXN_PREPARE, 0), (OpType.TXN_PREPARE, 1),
        (OpType.TXN_PREPARE, 0), (OpType.TXN_PREPARE, 1)]
    assert all(c.acked_low_water < c.seq for c in firsts)
    assert not any(coordinator._open.values())

    coordinator.crash()
    coordinator.recover()
    cluster.sim.run(until=sec(2.5))
    assert not coordinator._recovering
    sent.clear()
    cluster.sim.schedule(ms(10), coordinator._start_attempt, "c:3", None,
                         [["put", keys[0][0], "w"], ["put", keys[1][0], "w"]],
                         3)
    cluster.sim.run(until=sec(4.0))
    assert coordinator.commits == 3
    assert {c.client_id for c in sent} == {f"__txn__:{coordinator.name}.2"}
    assert min(c.seq for c in sent) == 1


# -- txn coordinator host kill mid-2PC ----------------------------------------


def test_txn_coordinator_host_kill_fails_over_in_milliseconds():
    """Kill the machine under a txn coordinator (its control replica dies
    with it) while 2PC is in flight, and keep it down for 3 s.  A peer
    must fence + sweep the victim within milliseconds of lease expiry —
    not wait out the machine's restart — and every ack identity must
    survive the janitor's presumed-abort/commit-replay sweep."""
    spec = txn_spec(11)
    cluster = TxnCluster(spec)
    nemesis = Nemesis(cluster, seed=11, host_down_s=3.0)
    nemesis.coordinator_host_kill_at(3.0, role="txn")
    result = cluster.run()

    assert nemesis.host_kills == 1
    assert result.failovers > 0
    assert cluster.metrics.counters.get("coordinator_failovers", 0) > 0
    assert_txn_contract(result)
    assert result.committed_total > 0 and result.commits_2pc > 0

    # Milliseconds, not the 3 s the machine stayed dark: lease expiry
    # (320 ms) plus one committed take record.
    takeovers = [t for c in cluster.coordinators for t in c.takeovers]
    latency_ms = first_takeover_latency_ms(nemesis, takeovers)
    assert latency_ms < 1000.0, f"takeover took {latency_ms:.0f} ms"


def test_failover_figure_times_the_take_of_the_killed_coordinator():
    """The `coordinator_failover` figure's seed-2 txn trial (at the
    figure's default scale) kills txnco_canada's host.  A coordinator
    taken over while alive journals a fence above the take, so it is
    taken again, promptly, when it dies."""
    spec = bench_txn_spec(0.6, 2, num_shards=2, cross_shard_ratio=0.6)
    cluster = TxnCluster(spec)
    nemesis = Nemesis(cluster, seed=2, host_down_s=0.4 * spec.duration_s)
    nemesis.coordinator_host_kill_at(0.45 * spec.duration_s, role="txn")
    result = cluster.run()

    (kill_s, host), = nemesis.killed_hosts
    assert host == "txnctl_h_canada"
    taken = sorted(at for c in cluster.coordinators
                   for at, victim in c.takeovers
                   if victim == "txnco_canada" and at >= sec(kill_s))
    assert taken, "the killed coordinator was never taken over"
    assert taken[0] - sec(kill_s) < sec(1.5)
    assert result.safe


# -- reshard driver host kill mid-migration -----------------------------------


def reshard_spec(seed: int, **overrides) -> ReshardSpec:
    defaults = dict(
        protocol="raft", num_shards=2, placement="spread",
        clients_per_region=max(1, round(2 * SCALE / 0.3)),
        workload=WORKLOAD,
        duration_s=max(12.0, 12.0 * SCALE / 0.3),
        warmup_s=1.0, cooldown_s=0.5, seed=seed,
        check_history=True, reshard_to=4, reshard_at_s=2.0,
    )
    defaults.update(overrides)
    return ReshardSpec(**defaults)


def test_reshard_driver_host_kill_standby_resumes():
    """Crash the lease-holding reshard driver's host mid-plan (donor
    leaders are killed first so the migration is still in flight when the
    driver dies).  A standby in another site must claim the role through
    the control journal and resume from the committed cursor; the machine
    stays dark for 3 s, so completion-before-restart proves the failover."""
    cluster = ShardedCluster(reshard_spec(5))
    nemesis = Nemesis(cluster, seed=5, leader_down_s=1.2, host_down_s=3.0)
    # Stretch the migration through donor elections...
    nemesis.leader_kill_at(2.1, shard=0)
    nemesis.leader_kill_at(2.1, shard=1)
    # ...then kill the active driver once its lease is established.
    nemesis.coordinator_host_kill_at(3.6, role="reshard")
    result = run_reshard_experiment(cluster)

    assert result.reshard_completed
    assert result.final_epoch == 1
    assert result.failovers > 0
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.linearizable


def test_reshard_completes_while_first_hop_host_is_down():
    """The motivating bug: `ReshardCoordinator._issue` used to pin every
    send of a step to the replica in the driver's own site, so that one
    host dying mid-export wedged the migration until the machine came
    back.  With shared hosts (one per site), kill the first-hop site's
    data host just after the export starts and keep it down for 10 s: the
    send ring must rotate to another site's replica (each step retries
    its own-site hop first, so rotation costs a retry-timeout or two per
    step) and the migration must finish while the first hop is still
    dark."""
    spec = reshard_spec(3, hosts_per_site=1, duration_s=max(13.0, 13.0 * SCALE / 0.3))
    state = {}
    cluster = ShardedCluster(spec)
    nemesis = Nemesis(cluster, seed=3, host_down_s=10.0)

    def strike() -> None:
        plane = cluster.coordinator
        active = plane.active if plane is not None else None
        if active is None or plane.done:  # pragma: no cover - tuning
            return
        move = plane.moves[min(active._step // 2, len(plane.moves) - 1)]
        first_hop = cluster.groups[move.donor][
            f"g{move.donor}_r_{active.site}"]
        state["down_until"] = cluster.sim.now / 1e6 + 10.0
        nemesis._host_kill(first_hop.host.name)
    cluster.sim.schedule_at(sec(spec.reshard_at_s + 0.1), strike)
    result = run_reshard_experiment(cluster)

    assert "down_until" in state  # the strike really fired mid-plan
    assert result.reshard_completed
    # Completion BEFORE the first-hop host restarts is the regression
    # check: the pinned ring would have wedged until recovery.
    assert result.migration_completed_s < state["down_until"]
    assert result.final_epoch == 1
    assert result.acks_lost == 0
    assert result.acks_duplicated == 0
    assert result.duplicate_executions == 0
    assert result.linearizable


# -- the composed schedule: both planes faulted in one run --------------------


def test_coordinator_kills_mid_2pc_and_mid_reshard_same_run():
    """One run, both coordinator planes faulted: a txn coordinator host
    dies with 2PC in flight AND the reshard driver's host dies
    mid-migration.  The full contract must hold across both failovers,
    and the client-visible ack stream may pause only for the failover
    window — not for a machine restart."""
    spec = txn_spec(7, duration_s=max(14.0, 14.0 * SCALE / 0.3))
    cluster = TxnCluster(spec)
    cluster.reshard(4, at=sec(4.0))
    nemesis = Nemesis(cluster, seed=7, leader_down_s=1.2, host_down_s=3.0)
    nemesis.coordinator_host_kill_at(2.5, role="txn")
    nemesis.leader_kill_at(4.1, shard=0)
    nemesis.leader_kill_at(4.1, shard=1)
    nemesis.coordinator_host_kill_at(5.6, role="reshard")
    result = cluster.run()

    # Both planes actually failed over.
    assert nemesis.host_kills == 2
    assert result.failovers > 0                      # txn janitor takeover
    # The txn kill also took the control-log leader's host: the janitors
    # take every live peer once the log elects again (4 takes), plus the
    # killed coordinator.  Restarted, it renews its lease from the moment
    # its re-fence is adopted, so its self-sweep does not outlast the
    # expiry and nobody takes it again.  A live member taken again after
    # every slow renewal would push this far past 5.
    assert result.failovers <= 5
    restarted = next(at_s for at_s, what in nemesis.log
                     if what.startswith("host_kill: recovered txnctl_"))
    assert all(at < sec(restarted) for c in cluster.coordinators
               for at, _victim in c.takeovers)
    assert cluster.coordinator is not None
    assert cluster.coordinator.failovers > 0         # reshard owner claim
    assert cluster.reshard_completed_at is not None
    assert cluster.router.epoch == 1

    # The contract, across the epoch change and both failovers.
    assert_txn_contract(result)
    assert result.committed_total > 0 and result.commits_2pc > 0

    # Bounded ack-latency hole: the longest gap between consecutive
    # transaction acks must stay within the failover window plus retry
    # backoff — far below the 3 s the machines stayed dark (a wedged
    # coordinator would open a hole the length of the outage).
    ends = sorted(event.end / 1e6 for event in cluster.txn_events
                  if sec(spec.warmup_s) <= event.end)
    gaps = [b - a for a, b in zip(ends, ends[1:])]
    assert gaps, "no acks after warmup"
    assert max(gaps) < 2.5, f"ack hole of {max(gaps):.2f} s"

    # No ghost installs: every acked transactional write is in its key's
    # final-owner install order once phase 2 has finished.
    assert lost_installs(cluster) == []
