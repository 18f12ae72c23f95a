"""Per-operation consistency levels against the lease-read protocols:
DEFAULT rides the lease paths, LINEARIZABLE forces the log."""

import pytest

from repro.bench.harness import Cluster, ExperimentSpec
from repro.protocols.types import Consistency
from repro.sim.topology import uniform_topology
from repro.workload.clients import ClosedLoopClient
from repro.workload.ycsb import WorkloadConfig


def run(protocol, depth=2):
    spec = ExperimentSpec(
        protocol=protocol,
        leader_site="s0",
        topology=uniform_topology(["s0", "s1", "s2"], rtt_ms_value=10.0),
        clients_per_region=2,
        workload=WorkloadConfig(read_fraction=0.9, conflict_rate=0.0,
                                records=300),
        duration_s=3.0, warmup_s=0.8, cooldown_s=0.4,
        seed=2,
        check_history=True, full_check=True,
        pipeline_depth=depth,
    )
    return Cluster(spec).run()


@pytest.mark.parametrize("protocol", ["leaderlease", "raftstar-pql"])
def test_default_consistency_serves_lease_reads(protocol):
    result = run(protocol)
    assert result.local_read_fraction > 0.5
    assert not result.violations


@pytest.mark.parametrize("protocol", ["leaderlease", "raftstar-pql"])
def test_linearizable_forces_every_read_through_the_log(protocol,
                                                        monkeypatch):
    # Every client asks for LINEARIZABLE on each operation it issues.
    def issue_linearizable(client):
        op, key, value = client._pick_op()
        client.submit(op, key, value, consistency=Consistency.LINEARIZABLE)

    monkeypatch.setattr(ClosedLoopClient, "_issue_one", issue_linearizable)
    result = run(protocol)
    assert result.local_read_fraction == 0.0
    assert not result.violations
