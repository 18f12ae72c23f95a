"""The bench CLI, driven through its parser with every runner stubbed.

Everything here iterates the figure registry, so a new figure or flag is
covered the moment it is declared (a flag with no sample value below
fails with a KeyError naming it).
"""

import pathlib
import re
from dataclasses import replace

import pytest

from repro.bench.__main__ import build_parser, main
from repro.bench.figures import FIGURES

OPTIONS = [(figure.name, option) for figure in FIGURES.values()
           for option in figure.options]
BY_FLAG = [pytest.param(name, option, id=option.flag)
           for name, option in OPTIONS]

#: flag -> (argv tokens, the value the figure's runner must receive)
SAMPLE = {
    "--pipeline-depth": (["2", "3"], (2, 3)),
    "--offered-load": (["300", "900.5"], (300.0, 900.5)),
    "--obs": ([], True),
    "--tail-load": (["1200"], 1200.0),
    "--metrics-out": (["out.jsonl"], "out.jsonl"),
    "--shards": (["1", "3"], (1, 3)),
    "--placement": (["colocated"], ("colocated",)),
    "--reshard-at": (["1.5"], 1.5),
    "--reshard-from": (["3"], 3),
    "--reshard-to": (["6"], 6),
    "--membership-protocol": (["multipaxos"], "multipaxos"),
    "--membership-at": (["2.5"], 2.5),
    "--membership-alpha": (["64"], 64),
    "--mencius-depth": (["1", "4"], (1, 4)),
    "--txn-shards": (["2"], (2,)),
    "--cross-ratio": (["0", "1"], (0.0, 1.0)),
    "--coalesce": (["on"], ("on",)),
    "--coalesce-shards": (["2"], (2,)),
}

#: flag -> a value its range check (or choice list) must refuse
OUT_OF_RANGE = {
    "--pipeline-depth": "0",
    "--offered-load": "0",
    "--tail-load": "-5",
    "--shards": "0",
    "--placement": "everywhere",
    "--reshard-from": "0",
    "--reshard-to": "0",
    "--membership-protocol": "mencius",
    "--membership-alpha": "-1",
    "--mencius-depth": "0",
    "--txn-shards": "0",
    "--cross-ratio": "1.5",
    "--coalesce": "maybe",
    "--coalesce-shards": "0",
}


@pytest.fixture
def calls(monkeypatch):
    """Replace every runner with a recorder: (name, scale, seed, options)."""
    seen = []
    for name, figure in FIGURES.items():
        def run(scale, seed, _name=name, **options):
            seen.append((_name, scale, seed, options))
            return f"<{_name}>", 0
        monkeypatch.setitem(FIGURES, name, replace(figure, run=run))
    return seen


def test_no_arguments_runs_every_default_figure(calls, capsys):
    assert main([]) == 0
    ran = [name for name, *_ in calls]
    assert ran == list(FIGURES)
    for name, scale, seed, options in calls:
        assert (scale, seed) == (0.6, 1)
        assert set(options) == {o.keyword for o in FIGURES[name].options}
    assert dict(calls[ran.index("pipeline")][3]) == {
        "depths": (1, 2, 4, 8), "loads": (200, 400, 800, 1600), "obs": False}
    out = capsys.readouterr().out
    assert all(f"<{name}>" in out and f"[{name}: " in out for name in ran)


def test_named_figures_run_in_the_order_given(calls):
    assert main(["txn", "fig3", "--scale", "0.2", "--seed", "9"]) == 0
    assert [(name, scale, seed) for name, scale, seed, _ in calls] == [
        ("txn", 0.2, 9), ("fig3", 0.2, 9)]


def test_unknown_figure_is_rejected(calls, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fig3", "fig99"])
    assert exit_info.value.code == 2
    assert "fig99" in capsys.readouterr().err
    assert calls == []


def test_the_retired_perf_figure_is_rejected_naming_the_valid_ones(calls,
                                                                   capsys):
    """The events/s microbenchmark is gone (the ledger under
    `benchmarks/ledger/` is the one perf benchmark): asking for it is an
    unknown-figure error, and its flags no longer parse."""
    with pytest.raises(SystemExit) as exit_info:
        main(["perf"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "perf" in err and all(name in err for name in FIGURES)
    for flag in ("--perf-out", "--perf-baseline", "--perf-fail-threshold"):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig3", flag, "x"])
        assert exit_info.value.code == 2
    assert calls == []


@pytest.mark.parametrize("name,option", BY_FLAG)
def test_flag_value_reaches_its_runner(calls, name, option):
    tokens, expected = SAMPLE[option.flag]
    assert main([name, option.flag, *tokens]) == 0
    (ran, _scale, _seed, options), = calls
    assert ran == name
    assert options[option.keyword] == expected


@pytest.mark.parametrize("name,option", [
    pytest.param(name, option, id=option.flag) for name, option in OPTIONS
    if option.choices or option.type not in (str, int, float, bool)])
def test_out_of_range_value_is_rejected_naming_the_flag(calls, capsys,
                                                        name, option):
    with pytest.raises(SystemExit) as exit_info:
        main([name, option.flag, OUT_OF_RANGE[option.flag]])
    assert exit_info.value.code == 2
    assert f"argument {option.flag}:" in capsys.readouterr().err
    assert calls == []


def test_help_names_every_figure_and_every_flag():
    text = build_parser().format_help()
    for name, figure in FIGURES.items():
        assert re.search(rf"\b{re.escape(name)}\b", text)
        for option in figure.options:
            assert option.flag in text
    assert "--scale" in text and "--seed" in text


def test_a_failing_figure_sets_the_exit_code(calls, monkeypatch):
    monkeypatch.setitem(FIGURES, "fig6", replace(
        FIGURES["fig6"], run=lambda scale, seed, **options: ("broken", 1)))
    assert main(["fig6", "fig3"]) == 1
    assert [name for name, *_ in calls] == ["fig3"]  # the rest still ran


# -- the committed results ----------------------------------------------------

BENCHMARKS = pathlib.Path(__file__).parents[2] / "benchmarks"
STEMS = sorted(path.stem for path in (BENCHMARKS / "results").glob("*.txt"))


def test_registry_result_names_are_committed_files():
    for figure in FIGURES.values():
        assert set(figure.results) <= set(STEMS), figure.name


@pytest.mark.parametrize("stem", STEMS)
def test_every_committed_result_has_a_generator(stem):
    """No hand-saved output: some benchmark ends in save_figure("<stem>"."""
    assert any(f'save_figure("{stem}"' in path.read_text()
               for path in BENCHMARKS.glob("test_*.py"))
