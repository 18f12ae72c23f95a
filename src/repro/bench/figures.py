"""The figure registry: everything `python -m repro.bench` can run, declared
once.  One `Figure` entry carries the figure's runner, its CLI options and
the `benchmarks/results` files it is committed as; the parser, `--help`,
validation and dispatch (`repro.bench.__main__`), the CLI test and the CI
smoke are all derived from `FIGURES`.

A runner is called as ``run(scale, seed, **{option.keyword: value})`` and
returns ``(text to print, process exit code)``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.bench import experiments as ex
from repro.bench.report import FigureTable, render_all
from repro.protocols.registry import MENCIUS_PROTOCOLS, PROTOCOLS
from repro.shard.placement import PLACEMENTS
from repro.specs import mapping, variants


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool],
             expect: str) -> Callable[[str], Any]:
    """An argparse `type` that converts, then range-checks: a bad value is
    rejected by the parser with the flag's name in front."""
    def parse(text: str) -> Any:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {expect}")
        return value
    return parse


COUNT = _checked(int, lambda v: v >= 1, ">= 1")
RATE = _checked(float, lambda v: v > 0, "positive")


@dataclass(frozen=True)
class Option:
    """One CLI flag of one figure."""

    flag: str
    keyword: str             # the runner keyword the value is passed as
    help: str
    type: Callable = str     # argparse `type` (range check included)
    default: Any = None
    many: bool = False       # one or more values, passed on as a tuple
    metavar: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    # Parsed value -> what the runner takes (e.g. "both" -> both modes).
    expand: Callable[[Any], Any] = lambda value: value

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def add_to(self, parser) -> None:
        if self.type is bool:
            parser.add_argument(self.flag, action="store_true", help=self.help)
            return
        text = self.help
        if self.default is not None:
            shown = (" ".join(f"{v:g}" for v in self.default) if self.many
                     else self.default)
            text += f" (default: {shown})"
        parser.add_argument(
            self.flag, type=self.type, default=self.default,
            nargs="+" if self.many else None, metavar=self.metavar,
            choices=self.choices, help=text)

    def value(self, args: argparse.Namespace) -> Any:
        parsed = getattr(args, self.dest)
        return self.expand(tuple(parsed) if self.many else parsed)


@dataclass(frozen=True)
class Figure:
    name: str
    run: Callable[..., Tuple[str, int]]
    options: Tuple[Option, ...] = ()
    # Stems under benchmarks/results/ holding this figure's committed output.
    results: Tuple[str, ...] = ()


def _rendered(experiment: Callable) -> Callable[..., Tuple[str, int]]:
    """Adapt an experiment function (returns text, a `FigureTable`, or
    several tables) to the runner contract."""
    def run(scale: float, seed: int, **options) -> Tuple[str, int]:
        out = experiment(scale, seed, **options)
        if isinstance(out, FigureTable):
            out = out.render()
        elif not isinstance(out, str):
            out = render_all(out)
        return out, 0
    return run


FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    Figure("fig3", _rendered(lambda scale, seed: mapping.render()),
           results=("fig3_mapping",)),
    Figure("fig6", _rendered(lambda scale, seed: variants.render()),
           results=("fig6_variants",)),
    Figure("fig9ab", _rendered(ex.fig9_latency),
           results=("fig9a_read_latency", "fig9b_write_latency")),
    Figure("fig9c", _rendered(ex.fig9c_peak_throughput),
           results=("fig9c_peak_throughput",)),
    Figure("fig9d", _rendered(ex.fig9d_speedup), results=("fig9d_speedup",)),
    Figure("fig10a", _rendered(ex.fig10a_throughput_8b),
           results=("fig10a_throughput_8b",)),
    Figure("fig10b", _rendered(ex.fig10b_throughput_4kb),
           results=("fig10b_throughput_4kb",)),
    Figure("fig10c", _rendered(ex.fig10c_latency_8b),
           results=("fig10c_latency_8b",)),
    Figure("fig10d", _rendered(ex.fig10d_latency_4kb),
           results=("fig10d_latency_4kb",)),
    Figure("pipeline", _rendered(ex.pipeline_figures),
           results=("pipeline_depth_sweep", "pipeline_open_loop"), options=(
        Option("--pipeline-depth", "depths", type=COUNT, many=True,
               default=(1, 2, 4, 8), metavar="N",
               help="session window depths for the closed-loop sweep at "
                    "equal client count"),
        Option("--offered-load", "loads", type=RATE, many=True,
               default=(200, 400, 800, 1600), metavar="R",
               help="aggregate open-loop (Poisson) arrival rates in ops/s "
                    "for the latency-vs-load curve; NOT scaled by --scale — "
                    "service capacity does not scale either, and the knee "
                    "is the point"),
        Option("--obs", "obs", type=bool,
               help="collect observability (request spans, queue gauges, "
                    "sim profile) on the open-loop curve and add each "
                    "protocol's p99 phase budget; the tail figure always "
                    "collects (DESIGN.md §9)"),
    )),
    Figure("tail", _rendered(ex.tail_figure), options=(
        Option("--tail-load", "offered_load", type=RATE, default=1600.0,
               metavar="R",
               help="the single open-loop offered load in ops/s — past "
                    "the ~1K Raft knee, so queueing dominates the tail"),
        Option("--metrics-out", "metrics_out", metavar="FILE",
               help="also dump the run's raw telemetry (records, spans, "
                    "gauge series, profiler rows) as typed JSONL to FILE"),
    )),
    Figure("sharding", _rendered(ex.sharding_scaling),
           results=("sharding_scaling",), options=(
        Option("--shards", "shard_counts", type=COUNT, many=True,
               default=(1, 2, 4, 8), metavar="N", help="shard counts"),
        Option("--placement", "placements", default="both",
               choices=(*sorted(PLACEMENTS), "both"),
               expand=lambda name: (tuple(sorted(PLACEMENTS, reverse=True))
                                    if name == "both" else (name,)),
               help="leader placement(s)"),
    )),
    Figure("reshard", _rendered(ex.reshard_timeline),
           results=("reshard_timeline",), options=(
        Option("--reshard-at", "reshard_at_s", type=float, metavar="S",
               help="trigger the split S seconds into the run (default: "
                    "40%% of the duration)"),
        Option("--reshard-from", "shards_from", type=COUNT, default=2,
               metavar="N", help="shard count before the live transition"),
        Option("--reshard-to", "shards_to", type=COUNT, default=4,
               metavar="N", help="shard count after the live transition"),
    )),
    Figure("membership",
           _rendered(lambda scale, seed, **options: ex.membership_timeline(
               scale, seed, **options)[0]),
           results=("membership_replacement",), options=(
        Option("--membership-protocol", "protocol", default="raft",
               choices=tuple(sorted(set(PROTOCOLS) - MENCIUS_PROTOCOLS)),
               help="protocol of the first timeline; the figure also runs "
                    "one protocol of the OTHER reconfiguration family, so "
                    "the joint vs α contrast always has both styles "
                    "(DESIGN.md §13)"),
        Option("--membership-at", "replace_at_s", type=float, metavar="S",
               help="kill the machine S seconds into the run (default: "
                    "30%% of the duration)"),
        Option("--membership-alpha", "alpha", default=0, metavar="A",
               type=_checked(int, lambda v: v >= 0, ">= 0"),
               help="α window of the α-bounded run; 0 = the protocol's "
                    "DEFAULT_ALPHA"),
    )),
    Figure("mencius-pipeline", _rendered(ex.mencius_pipeline),
           results=("mencius_pipeline",), options=(
        Option("--mencius-depth", "depths", type=COUNT, many=True,
               default=(1, 2, 4, 8), metavar="N",
               help="session window depths swept over both Mencius "
                    "execution modes"),
    )),
    Figure("txn", _rendered(ex.txn_figures),
           results=("txn_scaling", "txn_faults"), options=(
        Option("--txn-shards", "shard_counts", type=COUNT, many=True,
               default=(1, 2, 4), metavar="N", help="shard counts"),
        Option("--cross-ratio", "cross_ratios", many=True,
               default=(0.0, 0.1, 0.5), metavar="R",
               type=_checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
               help="cross-shard ratios of the sweep; the highest one is "
                    "re-run at the highest shard count under a nemesis "
                    "fault schedule (leader kill mid-prepare, coordinator "
                    "kill mid-commit, coordinator HOST kill past its "
                    "lease, leader partition)"),
    )),
    Figure("failover",
           _rendered(lambda scale, seed: ex.coordinator_failover(
               scale, seeds=(seed, seed + 1, seed + 2))[0]),
           results=("coordinator_failover",)),
    Figure("coalesce", _rendered(ex.coalesce_figure), results=("coalesce",),
           options=(
        Option("--coalesce", "modes", default="both",
               choices=("on", "off", "both"),
               expand=lambda mode: (("off", "on") if mode == "both"
                                    else (mode,)),
               help="which transport modes to run — the figure is the A/B "
                    "of host-multiplexed groups with vs without cross-"
                    "group coalescing (DESIGN.md §7)"),
        Option("--coalesce-shards", "shard_counts", type=COUNT, many=True,
               default=(2, 4, 8), metavar="N",
               help="shard counts; the offered load stays fixed "
                    "(saturation is the point), --scale shortens the run"),
    )),
)}
