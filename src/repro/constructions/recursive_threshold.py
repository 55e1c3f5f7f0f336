"""Recursive threshold systems RT(k, l) of Section 5.2.

The basic block is the ``l``-of-``k`` threshold system (``k > l > k/2``); the
RT system of depth ``h`` composes the block over itself ``h - 1`` times,
giving ``n = k^h`` servers.  Proposition 5.3 gives the parameters

* ``c = l^h``, ``IS = (2l - k)^h``, ``MT = (k - l + 1)^h``,

Proposition 5.5 the load ``n^-(1 - log_k l)``, and Propositions 5.6/5.7 the
availability: the crash probability follows the exact recurrence
``F(h) = g(F(h-1))`` with ``F(0) = p`` where ``g`` is the binomial tail of
the basic block, giving a critical probability ``p_c`` (0.2324 for RT(4,3))
below which ``Fp -> 0`` as the depth grows.

Elements are integers ``0 .. k^h - 1``; the base-``k`` digits of an element
are its path from the root of the recursion tree (most significant digit =
top level).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from repro.core.availability import validate_probability
from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import ConstructionError
from repro.percolation.critical import fixed_point_of_reliability

__all__ = ["RecursiveThreshold"]


class RecursiveThreshold(QuorumSystem):
    """The RT(k, l) system of depth ``h`` (Figure 2 shows RT(4, 3), ``h = 2``).

    Parameters
    ----------
    k:
        Branching factor of the recursion (size of the basic block).
    l:
        Threshold of the basic block; must satisfy ``k > l > k/2``.
    depth:
        Recursion depth ``h >= 1``; the universe has ``k ** depth`` servers.
    """

    def __init__(self, k: int, l: int, depth: int):
        if not k > l > k / 2:
            raise ConstructionError(
                f"RT requires k > l > k/2; got k={k}, l={l}"
            )
        if depth < 1:
            raise ConstructionError(f"depth must be >= 1, got {depth}")
        self.k = k
        self.l = l
        self.depth = depth
        self._n = k ** depth
        self._universe = Universe.of_size(self._n)
        self.name = f"RT({k},{l}) depth {depth}"

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    @property
    def universe(self) -> Universe:
        return self._universe

    def _subtree_masks(self, root: int, level: int) -> Iterator[int]:
        """Yield quorum bitmasks of the subtree rooted at offset ``root``.

        Elements are the integers ``0 .. k^h - 1`` and the universe index of
        element ``i`` is ``i`` itself, so a subtree quorum is the OR of its
        chosen children's masks.
        """
        if level == 0:
            yield 1 << root
            return
        child_span = self.k ** (level - 1)
        children = [root + child * child_span for child in range(self.k)]
        for chosen in itertools.combinations(children, self.l):
            child_mask_lists = [
                list(self._subtree_masks(child, level - 1)) for child in chosen
            ]
            for combination in itertools.product(*child_mask_lists):
                mask = 0
                for part in combination:
                    mask |= part
                yield mask

    def iter_quorum_masks(self) -> Iterator[int]:
        return self._subtree_masks(0, self.depth)

    def num_quorums(self) -> int:
        count = 1
        for _ in range(self.depth):
            count = math.comb(self.k, self.l) * count ** self.l
        return count

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """Sample a quorum by choosing ``l`` children uniformly at every level."""

        def sample_subtree_mask(root: int, level: int) -> int:
            if level == 0:
                return 1 << root
            child_span = self.k ** (level - 1)
            chosen = rng.choice(self.k, size=self.l, replace=False)
            mask = 0
            for child in chosen:
                mask |= sample_subtree_mask(root + int(child) * child_span, level - 1)
            return mask

        return sample_subtree_mask(0, self.depth)

    # ------------------------------------------------------------------
    # Analytic measures (Propositions 5.3 and 5.5).
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        return self.l ** self.depth

    def max_quorum_size(self) -> int:
        return self.min_quorum_size()

    def min_intersection_size(self) -> int:
        return (2 * self.l - self.k) ** self.depth

    def min_transversal_size(self) -> int:
        return (self.k - self.l + 1) ** self.depth

    def load(self) -> float:
        """Return ``(l/k)^h = n^-(1 - log_k l)`` (Proposition 5.5)."""
        return (self.l / self.k) ** self.depth

    # ------------------------------------------------------------------
    # Availability (Propositions 5.6 and 5.7).
    # ------------------------------------------------------------------
    def block_crash_function(self, p: float) -> float:
        """Return ``g(p)``: the crash probability of the basic ``l``-of-``k`` block.

        ``g(p) = P(Binomial(k, p) >= k - l + 1)``; for RT(4, 3) this is the
        polynomial ``6p^2 - 8p^3 + 3p^4`` quoted in the paper.
        """
        from scipy import stats

        validate_probability(p)
        return float(stats.binom.sf(self.k - self.l, self.k, p))

    def crash_probability(self, p: float) -> float:
        """Return the exact ``Fp`` via the recurrence ``F(h) = g(F(h-1))``, ``F(0) = p``."""
        value = float(p)
        for _ in range(self.depth):
            value = self.block_crash_function(value)
        return value

    def critical_probability(self) -> float:
        """Return ``p_c``, the unique non-trivial fixed point of ``g`` (Proposition 5.6).

        Below ``p_c`` the crash probability decays to zero with the depth;
        above it, it tends to one.  For RT(4, 3) the value is 0.2324.
        """
        return fixed_point_of_reliability(self.block_crash_function)

    def crash_probability_upper_bound(self, p: float) -> float:
        """Return Proposition 5.7's bound ``(C(k, l-1) p)^((k - l + 1)^h)``.

        Meaningful (decaying) only when ``p < 1 / C(k, l-1)``.
        """
        base = math.comb(self.k, self.l - 1) * p
        return float(base ** ((self.k - self.l + 1) ** self.depth))
