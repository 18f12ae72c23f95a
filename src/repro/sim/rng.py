"""Deterministic, stream-split randomness.

Every stochastic component (network jitter, workload key choice, election
timeouts of each replica, ...) draws from its own named stream derived from a
single experiment seed.  Adding a new consumer of randomness therefore never
perturbs the draws seen by existing ones, which keeps regression baselines
stable.
"""

from __future__ import annotations

import random

from repro.sim.sha import sha256


class SplitRng:
    """A root seed from which independent named streams are derived."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) random stream for `name`."""
        if name not in self._streams:
            digest = sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]
