"""Leader-placement policies."""

import pytest

from repro.shard.placement import PLACEMENTS, colocated, leader_sites, spread

SITES = ("oregon", "ohio", "ireland", "canada", "seoul")


def test_colocated_pins_one_region():
    assert {colocated(shard, SITES) for shard in range(8)} == {"oregon"}
    assert colocated(3, SITES[::-1]) == "seoul"


def test_spread_round_robins():
    assert [spread(shard, SITES) for shard in range(7)] == [
        "oregon", "ohio", "ireland", "canada", "seoul", "oregon", "ohio",
    ]


def test_leader_sites_resolution():
    got = leader_sites("spread", 3, SITES)
    assert got == {0: "oregon", 1: "ohio", 2: "ireland"}
    got = leader_sites("colocated", 3, SITES[3:])
    assert got == {0: "canada", 1: "canada", 2: "canada"}


def test_registry_and_unknown_policy():
    assert set(PLACEMENTS) == {"colocated", "spread"}
    with pytest.raises(ValueError, match="unknown placement"):
        leader_sites("nope", 2, SITES)
