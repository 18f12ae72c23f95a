"""Determinism canary (`python -m repro.bench.determinism`).

The simulator's contract is bit-for-bit reproducibility: the same seed
must produce the same event order, the same replica logs, and the same
applied state, every run, on every machine.  The event queue (one heap
keyed by `(time, seq)`, lazy cancellation, compaction) preserves that
contract by construction — ties break on insertion sequence number —
and this module is the tripwire that keeps it true.

It runs a fixed single-group workload TWICE in the same process for
each of the eight `PROTOCOLS` (plus the labelled `VARIANTS`: a registry
protocol in a mode the default row does not reach) and digests every
replica's full log
(term, ballot, op, client, seq, key), its applied table, and the run's
completion/event counts into one SHA-256 per protocol.  The two
in-process digests must always match (schedule-order determinism), and
the digests are stable across interpreter launches, hash seeds and
machines, so a golden table (one row per label) lives in
``benchmarks/results/determinism_canary.json`` and CI compares every row
of every build against it (`--check`).

    python -m repro.bench.determinism                 # run twice, print
    python -m repro.bench.determinism --check FILE    # also compare golden
    python -m repro.bench.determinism --write FILE    # refresh the golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Dict, Iterable, List, Tuple

from repro.bench.harness import PROTOCOLS, Cluster, ExperimentSpec
from repro.shard.txn import TxnCluster, TxnSpec
from repro.sim.units import ms
from repro.workload.ycsb import WorkloadConfig

#: The canary workload: small enough for CI (sub-second), large enough
#: to elect a leader, replicate a few hundred entries, and exercise
#: far-future election timers, same-tick replication traffic, and
#: cancellation churn (timer resets) on the way.
CANARY_SCALE = 0.25
CANARY_SEED = 0

#: The one multi-group row, pinning the transaction path no other row
#: reaches (overrides of `sharded_txn_spec`, run on a `TxnCluster`): two
#: colocated shard groups behind a coalescing mux, a quarter of the
#: transactions cross-shard 2PC, and a key space small enough (60
#: records) that prepares conflict — so wait, die and abort-retry all
#: run, not just the happy path.  Its digest additionally covers every
#: log entry's value text and size (data groups and the coordinators'
#: control journal alike), each store's lock table and decision log, and
#: every acknowledged transaction with the values it read.
TXN_ROW = "txn-2pc"

#: Labelled rows beside the registry protocols: label -> spec overrides.
#: `mencius-commutative` is the mode Figure 10's Raft*-M-0% and the
#: ledger's `mencius-wan-4kb` run (write-only 4 KB values, answers as
#: soon as a commit's prefix is known) — the default `mencius` row runs
#: ordered execution over 8-byte values and never enters it.
VARIANTS: Dict[str, Dict[str, Any]] = {
    "mencius-commutative": dict(
        protocol="mencius", execution_mode="commutative",
        workload=WorkloadConfig(read_fraction=0.0, conflict_rate=0.0,
                                value_size=4096)),
    TXN_ROW: dict(num_shards=2, workload=WorkloadConfig(
        read_fraction=0.3, conflict_rate=0.0, value_size=8, records=60)),
}
CANARY_ROWS: Tuple[str, ...] = tuple(PROTOCOLS) + tuple(VARIANTS)


def _scaled(value: int, scale: float) -> int:
    return max(1, int(round(value * scale)))


def single_group_spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    """One Raft group under pipelined closed-loop load (replication path)."""
    return ExperimentSpec(
        protocol="raft",
        clients_per_region=_scaled(40, scale),
        pipeline_depth=4,
        workload=WorkloadConfig(read_fraction=0.5, conflict_rate=0.0,
                                value_size=8),
        duration_s=4.0 * max(scale, 0.25),
        warmup_s=1.0 * max(scale, 0.25),
        cooldown_s=0.5 * max(scale, 0.25),
        seed=seed,
    )


def sharded_txn_spec(scale: float = 1.0, seed: int = 0) -> TxnSpec:
    """Four colocated groups under multi-key transactional load: one
    quarter of the transactions span two shards (2PC through the
    coordinator), the rest take the single-shard atomic fast path."""
    return TxnSpec(
        protocol="raft",
        num_shards=4,
        placement="colocated",
        clients_per_region=_scaled(24, scale),
        workload=WorkloadConfig(read_fraction=0.1, conflict_rate=0.0,
                                value_size=8),
        duration_s=4.0 * max(scale, 0.25),
        warmup_s=1.0 * max(scale, 0.25),
        cooldown_s=0.5 * max(scale, 0.25),
        seed=seed,
        site_uplink_factor=None,
        hosts_per_site=1,
        coalesce=True,
        coalesce_flush_interval=int(ms(2)),
        txn_size=2,
        cross_shard_ratio=0.25,
    )


def _log_rows(replica, values: bool = False) -> List[list]:
    """A protocol-agnostic view of a replica's log: Raft's dense `log`
    list row by row; MultiPaxos `instances` and Mencius `entries` (slot
    -> Entry, holes possible) in slot order with the slot prepended.
    `values` adds each command's value text and simulated size."""
    def row(entry):
        command = entry.command
        return [entry.term, entry.ballot, command.op.name,
                command.client_id, command.seq, command.key] + (
                    [command.value, command.value_size] if values else [])

    log = getattr(replica, "log", None)
    if log is not None:
        return [row(entry) for entry in log]
    slots = getattr(replica, "instances", None)
    if slots is None:
        slots = replica.entries
    return [[index] + row(slots[index]) for index in sorted(slots)]


def state_digest(scale: float = CANARY_SCALE, seed: int = CANARY_SEED,
                 protocol: str = "raft") -> Tuple[str, Dict[str, Any]]:
    """Run the canary workload once under `protocol` (a registry name or
    a `VARIANTS` label); return (sha256 hex digest, summary).

    The digest covers, in canonical JSON (sorted keys, no whitespace):
    per-replica logs entry by entry, per-replica applied tables and
    counters, completed-op and simulator-event counts, and the final
    simulated clock.
    """
    txn = protocol == TXN_ROW
    if txn:
        cluster = TxnCluster(
            sharded_txn_spec(scale, seed).with_(**VARIANTS[protocol]))
        members = dict(cluster.txn_control.replicas)
        for group in cluster.groups.values():
            members.update(group)
    else:
        cluster = Cluster(single_group_spec(scale, seed).with_(
            **VARIANTS.get(protocol, {"protocol": protocol})))
        members = cluster.replicas
    result = cluster.run()
    replicas = {}
    for name in sorted(members):
        replica, store = members[name], members[name].store
        replicas[name] = {
            "log": _log_rows(replica, values=txn),
            "last_applied": replica.last_applied,
            "applied_count": store.applied_count,
            "table": sorted(store._table.items()),
        }
        if txn:  # the 2PC participant state a table digest cannot see
            replicas[name]["locks"] = sorted(store.locked_keys().items())
            replicas[name]["decisions"] = sorted(store._decisions.items())
    state = {
        "scale": scale,
        "seed": seed,
        "completed": result.completed,
        "events": cluster.sim.events_processed,
        "sim_now": cluster.sim.now,
        "replicas": replicas,
    }
    if txn:  # every acknowledged transaction, with the values it read
        state["acked"] = [[event.txn_id, event.start, event.end, event.ops]
                          for event in cluster.txn_events]
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    summary = {
        "digest": digest,
        "completed": result.completed,
        "events": cluster.sim.events_processed,
        "log_lengths": {name: len(r["log"]) for name, r in replicas.items()},
    }
    return digest, summary


def run_canary(scale: float = CANARY_SCALE, seed: int = CANARY_SEED,
               protocols: Iterable[str] = CANARY_ROWS) -> Dict[str, Any]:
    """Run the workload twice per row; raise if any pair of digests
    differs.  Returns the digest table (one summary row per label)."""
    rows = {}
    for protocol in protocols:
        digest_a, summary = state_digest(scale, seed, protocol)
        digest_b, _ = state_digest(scale, seed, protocol)
        if digest_a != digest_b:
            raise AssertionError(
                f"{protocol}: same-seed runs diverged: "
                f"{digest_a} != {digest_b}")
        rows[protocol] = summary
    return {"scale": scale, "seed": seed, "protocols": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.determinism",
        description="Run the determinism canary (every row, twice) "
                    "and optionally compare/refresh the committed golden "
                    "digest table.")
    parser.add_argument("--scale", type=float, default=CANARY_SCALE)
    parser.add_argument("--seed", type=int, default=CANARY_SEED)
    parser.add_argument("--check", metavar="FILE", default=None,
                        help="compare every row against a committed golden "
                             "table; exit non-zero on mismatch")
    parser.add_argument("--write", metavar="FILE", default=None,
                        help="write the fresh table as the new golden")
    args = parser.parse_args(argv)

    table = run_canary(args.scale, args.seed)
    print("determinism canary: two same-seed runs agree for every protocol")
    for protocol, row in table["protocols"].items():
        print(f"  {protocol:<19} digest {row['digest'][:16]}...  "
              f"{row['events']} events, {row['completed']} ops")

    if args.write is not None:
        with open(args.write, "w") as handle:
            json.dump(table, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote golden digest table to {args.write}")

    if args.check is not None:
        with open(args.check) as handle:
            golden = json.load(handle)
        if (golden.get("scale") != args.scale
                or golden.get("seed") != args.seed):
            print(f"golden table is for scale={golden.get('scale')} "
                  f"seed={golden.get('seed')}, ran scale={args.scale} "
                  f"seed={args.seed}: not comparable", file=sys.stderr)
            return 2
        drifted = False
        for protocol in sorted(set(golden["protocols"]) | set(table["protocols"])):
            committed = golden["protocols"].get(protocol, {}).get("digest")
            fresh = table["protocols"].get(protocol, {}).get("digest")
            if committed != fresh:
                drifted = True
                print(f"DETERMINISM DRIFT [{protocol}]: committed {committed}\n"
                      f"{'':>{22 + len(protocol)}}fresh     {fresh}",
                      file=sys.stderr)
        if drifted:
            return 1
        print(f"all {len(golden['protocols'])} golden digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
