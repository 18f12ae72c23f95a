"""Figure 3: the Raft* <-> MultiPaxos mapping table, regenerated and
re-verified (the refinement check is the 'measurement' here)."""

from repro.core.refinement import check_refinement
from repro.specs import mapping, multipaxos as mp, raftstar as rs


def test_fig3_mapping(benchmark, save_figure):
    cfg = mp.default_config(n=3, values=("a", "b"), max_ballot=2, max_index=0)

    def verify():
        return check_refinement(
            rs.build(cfg), mp.build(cfg), rs.raftstar_to_multipaxos(cfg),
            max_states=30_000, max_high_steps=3,
        )

    result = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert result.ok and result.complete
    for action, implied in result.observed_correspondence.items():
        assert implied <= set(mapping.SPEC_CORRESPONDENCE[action]), action
    text = mapping.render() + "\n\n" + result.summary()
    save_figure("fig3_mapping", text)


def test_fig3_function_table_relates_the_two_specs_actions():
    cfg = mp.default_config(n=3, values=("a",), max_ballot=1, max_index=0)
    table = mapping.SPEC_CORRESPONDENCE
    assert set(table) == {action.name for action in rs.build(cfg).actions}
    paxos_actions = {action.name for action in mp.build(cfg).actions}
    assert all(set(implied) <= paxos_actions for implied in table.values())
