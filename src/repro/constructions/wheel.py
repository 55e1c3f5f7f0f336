"""The wheel quorum system.

A classical low-load regular quorum system: one *hub* server and ``n - 1``
*rim* servers.  The quorums are every ``{hub, rim_i}`` pair plus the full
rim.  Any two quorums intersect (two spokes share the hub; a spoke and the
rim share its rim server), the load can be balanced down to ``O(1/n)`` on the
rim at the price of a constant load on the hub, and the system survives
either the hub or any single rim server crashing.

The wheel is the textbook example of the load/fault-tolerance tension for
*regular* systems and another irregular, unfair input for the boosting
transform of Section 6.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import ConstructionError

__all__ = ["WheelQuorumSystem"]

#: The hub is always element 0; rim servers are 1 .. n-1.
HUB = 0


class WheelQuorumSystem(QuorumSystem):
    """The wheel over ``n`` servers (one hub, ``n - 1`` rim servers).

    Parameters
    ----------
    n:
        Total number of servers; must be at least 3 so the rim is a cycle
        worth the name.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ConstructionError(f"a wheel needs at least 3 servers, got {n}")
        self._n = n
        self._universe = Universe.of_size(n)
        self.name = f"Wheel({n})"

    @property
    def universe(self) -> Universe:
        return self._universe

    def _rim_mask(self) -> int:
        """The rim servers (everything but the hub)."""
        return (1 << self._n) - 2

    def iter_quorum_masks(self) -> Iterator[int]:
        for rim_server in range(1, self._n):
            yield 1 << HUB | 1 << rim_server
        yield self._rim_mask()

    def num_quorums(self) -> int:
        return self._n

    def min_quorum_size(self) -> int:
        return 2

    def min_intersection_size(self) -> int:
        return 1

    def min_transversal_size(self) -> int:
        # Hit every spoke and the rim: the hub plus any rim server, or two
        # well-chosen rim servers never suffice to hit all spokes, so the
        # cheapest transversals are {hub, any rim server}.
        return 2

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """Sample with the load-balancing strategy: mostly spokes, rarely the rim."""
        if rng.random() < 1.0 / self._n:
            return self._rim_mask()
        rim_server = 1 + int(rng.integers(self._n - 1))
        return 1 << HUB | 1 << rim_server
