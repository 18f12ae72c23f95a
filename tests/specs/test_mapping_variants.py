"""Figure 3 (mapping table) and Figure 6 (variant landscape) artifacts."""

from repro.specs import coorraft, mapping, multipaxos as mp, raftstar as rs, rql, variants


def test_figure3_sections_present():
    sections = {row.section for row in mapping.FIGURE3}
    assert sections == {"variables", "messages", "functions"}


def test_figure3_key_rows():
    raftstar_side = {row.raftstar: row.multipaxos for row in mapping.FIGURE3}
    assert raftstar_side["currentTerm"] == "ballot"
    assert raftstar_side["isLeader"] == "phase1Succeeded"
    assert raftstar_side["requestVote"] == "prepare"
    assert "Phase2b" in raftstar_side["AppendEntries"]


def test_figure3_render():
    text = mapping.render()
    assert "Figure 3" in text
    assert "currentTerm" in text and "ballot" in text
    assert "[functions]" in text


def test_rows_filter():
    assert all(r.section == "messages" for r in mapping.rows("messages"))
    assert len(mapping.rows()) == len(mapping.FIGURE3)


def test_function_table_relates_the_two_specs_actions():
    """The one statement of Figure 3's function rows is about the two specs
    it claims to relate: its keys are Raft*'s actions, its values MultiPaxos
    actions, and both ports read this very table.  (That it covers what the
    Appendix C refinement run observed is asserted on that run, in
    `test_raftstar_spec.py::test_refinement_to_multipaxos_holds`.)"""
    cfg = mp.default_config(n=3, values=("a",), max_ballot=1, max_index=0)
    table = mapping.SPEC_CORRESPONDENCE
    assert set(table) == {action.name for action in rs.build(cfg).actions}
    paxos_actions = {action.name for action in mp.build(cfg).actions}
    assert all(set(implied) <= paxos_actions for implied in table.values())
    assert rql.port_spec(cfg).correspondence is table
    assert coorraft.port_spec(cfg).correspondence is table


def test_figure6_nonmutating_count():
    """The paper: 6 non-mutating optimizations on Paxos, plus WPaxos on
    Flexible Paxos — 7 port candidates in total."""
    candidates = variants.port_candidates()
    assert len(candidates) == 7
    names = {v.name for v in candidates}
    assert {"Paxos Quorum Lease", "Mencius", "WPaxos"} <= names


def test_figure6_classifications():
    flexible = next(v for v in variants.FIGURE6 if v.name == "Flexible Paxos")
    assert not flexible.portable
    assert "Paxos refines it" in flexible.classification
    fast = next(v for v in variants.FIGURE6 if v.name == "Fast Paxos")
    assert fast.classification == variants.NO_REFINEMENT


def test_figure6_every_variant_has_reason():
    assert all(v.reason for v in variants.FIGURE6)


def test_figure6_render():
    text = variants.render()
    assert "Figure 6" in text
    assert "Mencius" in text and "EPaxos" in text
    assert "7 of" in text


def test_by_classification():
    non_mutating = variants.by_classification(variants.NON_MUTATING)
    assert all(v.portable for v in non_mutating)
