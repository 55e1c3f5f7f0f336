"""Threshold quorum systems.

The ``k``-of-``n`` threshold system has every ``k``-subset of the universe as
a quorum.  Two instances matter for the paper:

* the **Threshold** baseline of [MR98a] (first row of Table 2), obtained with
  ``k = ceil((n + 2b + 1) / 2)`` so that any two quorums intersect in at
  least ``2b + 1`` servers; and
* the ``(3b+1)``-of-``(4b+1)`` block used as the inner component of the
  boostFPP construction (Section 6) and as the generic "boosting" component
  that turns any regular quorum system into a masking one.

Thresholds are fair and symmetric, so all of their measures have closed
forms, including the crash probability (a binomial tail), which is why they
also serve as the ground truth in many tests.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.core.availability import validate_probability
from repro.core.masking import can_mask, intersection_count
from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import ConstructionError

__all__ = ["ThresholdQuorumSystem", "masking_threshold", "majority", "boosting_block"]


class ThresholdQuorumSystem(QuorumSystem):
    """The ``k``-of-``n`` threshold quorum system.

    Parameters
    ----------
    n:
        Universe size.
    k:
        Quorum size.  Must satisfy ``n/2 < k <= n`` so that every two quorums
        intersect (Definition 3.1).

    Notes
    -----
    All measures are analytic:

    * ``c = k``, ``IS = 2k - n``, ``MT = n - k + 1``;
    * the system is ``(k, C(n-1, k-1))``-fair, so ``L = k / n``;
    * ``Fp = P(Binomial(n, p) >= n - k + 1)`` — the system dies exactly when
      fewer than ``k`` servers stay alive.
    """

    def __init__(self, n: int, k: int):
        if not 0 < k <= n:
            raise ConstructionError(f"threshold {k} must lie in [1, {n}]")
        if 2 * k <= n:
            raise ConstructionError(
                f"{k}-of-{n} is not a quorum system: two disjoint quorums exist"
            )
        self._n = n
        self.k = k
        self._universe = Universe.of_size(n)
        self.name = f"Threshold({k}-of-{n})"

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    @property
    def universe(self) -> Universe:
        return self._universe

    def iter_quorum_masks(self) -> Iterator[int]:
        import itertools

        for combination in itertools.combinations(range(self._n), self.k):
            mask = 0
            for index in combination:
                mask |= 1 << index
            yield mask

    def num_quorums(self) -> int:
        return math.comb(self._n, self.k)

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """Draw ``k`` uniform servers directly as a bitmask (no enumeration)."""
        members = rng.choice(self._n, size=self.k, replace=False)
        mask = 0
        for member in members:
            mask |= 1 << int(member)
        return mask

    def sample_quorum_avoiding(
        self,
        rng: np.random.Generator,
        excluded: frozenset,
        *,
        attempts: int = 50,
    ) -> frozenset:
        """Pick ``k`` servers uniformly among the non-excluded ones when possible."""
        available = [server for server in range(self._n) if server not in excluded]
        if len(available) < self.k:
            return self.sample_quorum(rng)
        chosen = rng.choice(len(available), size=self.k, replace=False)
        return frozenset(available[int(index)] for index in chosen)

    # ------------------------------------------------------------------
    # Analytic measures.
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        return self.k

    def max_quorum_size(self) -> int:
        return self.k

    def min_intersection_size(self) -> int:
        return 2 * self.k - self._n

    def min_transversal_size(self) -> int:
        return self._n - self.k + 1

    def fairness(self) -> tuple[int, int]:
        return self.k, math.comb(self._n - 1, self.k - 1)

    def load(self) -> float:
        """Return ``L = k / n`` (Proposition 3.9; the system is fair)."""
        return self.k / self._n

    def crash_probability(self, p: float) -> float:
        """Return the exact ``Fp``: the binomial tail ``P(#crashed >= n - k + 1)``."""
        from scipy import stats

        validate_probability(p)
        threshold_crashes = self._n - self.k + 1
        return float(stats.binom.sf(threshold_crashes - 1, self._n, p))

    def chernoff_crash_bound(self, p: float) -> float:
        """Return the Chernoff upper bound on ``Fp`` used in Proposition 6.3.

        For the ``(3b+1)``-of-``(4b+1)`` block the paper derives
        ``Fp <= exp(-2 n gamma^2)`` with ``gamma = MT/n - p``; the bound is
        vacuous (returns 1) when ``p`` exceeds ``MT/n``.
        """
        gamma = self.min_transversal_size() / self._n - p
        if gamma <= 0:
            return 1.0
        return math.exp(-2.0 * self._n * gamma * gamma)


def masking_threshold(n: int, b: int) -> ThresholdQuorumSystem:
    """Return the [MR98a] Threshold baseline: ``ceil((n + 2b + 1)/2)``-of-``n``.

    This is the first row of Table 2: it masks up to ``b < n/4`` Byzantine
    failures, has resilience ``f = O(n - b)``, load ``1/2 + O(b/n)`` and
    Condorcet availability.
    """
    if b < 0:
        raise ConstructionError(f"masking parameter must be >= 0, got {b}")
    k = math.ceil((n + intersection_count(b)) / 2)
    if not can_mask(2 * k - n, n - k + 1, b):
        raise ConstructionError(
            f"a {b}-masking system over {n} servers cannot exist (requires 4b < n)"
        )
    system = ThresholdQuorumSystem(n, k)
    system.name = f"MR98-Threshold(n={n}, b={b})"
    return system


def boosting_block(b: int) -> ThresholdQuorumSystem:
    """Return the ``(3b+1)``-of-``(4b+1)`` threshold block of Section 6.

    It is itself a ``b``-masking system (``IS = 2b+1``, ``MT = b+1``) and is
    the inner component of boostFPP and of the generic boosting transform.
    """
    if b < 0:
        raise ConstructionError(f"masking parameter must be >= 0, got {b}")
    system = ThresholdQuorumSystem(4 * b + 1, 3 * b + 1)
    system.name = f"Thresh(3b+1 of 4b+1, b={b})"
    return system


def majority(n: int) -> ThresholdQuorumSystem:
    """Return the simple majority quorum system (``ceil((n+1)/2)``-of-``n``)."""
    system = ThresholdQuorumSystem(n, math.ceil((n + 1) / 2))
    system.name = f"Majority({n})"
    return system
