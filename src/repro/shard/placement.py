"""Leader-placement policies.

Where each shard's leader lives is the scaling knob this subsystem exists
to expose.  `colocated` puts every leader in one region — each group's
commit path then funnels through that region's shared WAN uplink, which is
the Figure 10b single-leader bottleneck reproduced at shard granularity.
`spread` round-robins leaders across regions, recovering the Mencius
insight (spend every region's NIC, not one) without any intra-group
protocol change.

A policy maps (shard id, sites) -> the leader's site.  Policies are plain
callables registered in `PLACEMENTS` so benchmarks and the CLI select them
by name.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

# A policy takes (shard, sites); new policies only need to be added to
# PLACEMENTS.
LeaderPlacement = Callable[[int, Sequence[str]], str]


def colocated(shard: int, sites: Sequence[str]) -> str:
    """All shard leaders in the first site."""
    return sites[0]


def spread(shard: int, sites: Sequence[str]) -> str:
    """Leaders round-robined across regions."""
    return sites[shard % len(sites)]


PLACEMENTS: Dict[str, LeaderPlacement] = {
    "colocated": colocated,
    "spread": spread,
}


def leader_sites(policy: str, num_shards: int,
                 sites: Sequence[str]) -> Dict[int, str]:
    """Resolve a named policy to a shard -> leader-site map."""
    try:
        placement = PLACEMENTS[policy]
    except KeyError:
        raise ValueError(
            f"unknown placement {policy!r}; choose from {sorted(PLACEMENTS)}"
        ) from None
    return {shard: placement(shard, sites) for shard in range(num_shards)}
