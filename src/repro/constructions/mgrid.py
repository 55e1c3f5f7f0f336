"""The multi-grid (M-Grid) construction of Section 5.1.

Servers are arranged in a ``sqrt(n) x sqrt(n)`` grid; a quorum is the union
of ``sqrt(b+1)`` full rows and ``sqrt(b+1)`` full columns (Figure 1 shows the
``7 x 7``, ``b = 3`` instance).  The system is ``b``-masking for
``b <= (sqrt(n) - 1)/2``, has optimal load ``~ 2 sqrt((b+1)/n)``
(Proposition 5.2), but its crash probability tends to one as the grid grows
(any configuration that hits every row kills every quorum).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from repro.constructions.grid import _column_mask, _row_mask
from repro.core.analytic import rowcol_survival_estimate
from repro.core.availability import validate_probability
from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import ConstructionError

__all__ = ["MGrid"]


class MGrid(QuorumSystem):
    """The M-Grid(b) quorum system over a ``side x side`` grid.

    Parameters
    ----------
    side:
        The grid side; the universe has ``n = side ** 2`` servers labelled
        ``(row, column)`` with 0-based indices.
    b:
        The masking parameter.  The construction uses
        ``k = ceil(sqrt(b + 1))`` rows and columns per quorum and requires
        ``b <= (side - 1)/2`` (Proposition 5.1) as well as ``2k <= side`` so
        that quorums with disjoint row and column sets exist.
    """

    def __init__(self, side: int, b: int):
        if side < 2:
            raise ConstructionError(f"grid side must be at least 2, got {side}")
        if b < 0:
            raise ConstructionError(f"masking parameter must be >= 0, got {b}")
        if b > (side - 1) / 2:
            raise ConstructionError(
                f"M-Grid over a {side}x{side} grid can mask at most "
                f"b = {(side - 1) // 2}; got b={b}"
            )
        k = math.isqrt(b + 1)
        if k * k < b + 1:
            k += 1
        if 2 * k > side:
            raise ConstructionError(
                f"M-Grid needs 2*ceil(sqrt(b+1)) <= side; got b={b}, side={side}"
            )
        self.side = side
        self.b = b
        #: Number of rows (and of columns) per quorum, ``ceil(sqrt(b+1))``.
        self.k = k
        #: Fully-alive ``(rows, columns)`` an untouched quorum needs: ``k`` of
        #: each (any such rows and columns form one).
        self.alive_lines = (k, k)
        self._universe = Universe(
            (row, column) for row in range(side) for column in range(side)
        )
        self.name = f"M-Grid({side}x{side}, b={b})"

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    @property
    def universe(self) -> Universe:
        return self._universe

    def iter_quorum_masks(self) -> Iterator[int]:
        column_masks = [_column_mask(self.side, column) for column in range(self.side)]
        for rows in itertools.combinations(range(self.side), self.k):
            row_mask = 0
            for row in rows:
                row_mask |= _row_mask(self.side, row)
            for columns in itertools.combinations(range(self.side), self.k):
                mask = row_mask
                for column in columns:
                    mask |= column_masks[column]
                yield mask

    def num_quorums(self) -> int:
        return math.comb(self.side, self.k) ** 2

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """``k`` uniform rows plus ``k`` uniform columns, assembled from line masks.

        This is the load-optimal strategy of Proposition 5.2 drawn directly
        as a bitmask — the implicit-scale access path (the full family has
        ``C(side, k)^2`` members and is never enumerated at large ``side``).
        """
        rows = rng.choice(self.side, size=self.k, replace=False)
        columns = rng.choice(self.side, size=self.k, replace=False)
        mask = 0
        for row in rows:
            mask |= _row_mask(self.side, int(row))
        for column in columns:
            mask |= _column_mask(self.side, int(column))
        return mask

    # The inherited view, named in this class body only because the frozen
    # bench/trace.py resolves MGrid.__dict__["sample_quorum"] for its span.
    sample_quorum = QuorumSystem.sample_quorum

    # ------------------------------------------------------------------
    # Analytic measures (Propositions 5.1 and 5.2).
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        return 2 * self.k * self.side - self.k * self.k

    def max_quorum_size(self) -> int:
        return self.min_quorum_size()

    def min_intersection_size(self) -> int:
        # Quorums with disjoint row sets and disjoint column sets intersect in
        # exactly 2 k^2 cells (each one's rows crossed with the other's
        # columns); any shared row or column only enlarges the intersection.
        return 2 * self.k * self.k

    def min_transversal_size(self) -> int:
        # A set is a transversal exactly when it leaves fewer than k rows or
        # fewer than k columns untouched; cheapest is one hit in each of
        # side - (k - 1) rows.
        return self.side - self.k + 1

    def load(self) -> float:
        """Return ``c/n ~ 2 sqrt(b+1)/sqrt(n)`` (Proposition 5.2; the system is fair)."""
        return self.min_quorum_size() / self.n

    # ------------------------------------------------------------------
    # Availability.
    # ------------------------------------------------------------------
    def crash_probability_lower_bound(self, p: float) -> float:
        """Return the Section 5.1 lower bound ``(1 - (1-p)^side)^side``.

        If every row contains a crashed server then no quorum survives, so
        the probability of that event lower-bounds ``Fp``; it tends to one as
        the grid grows, which is M-Grid's weakness.
        """
        validate_probability(p)
        return (1.0 - (1.0 - p) ** self.side) ** self.side

    def crash_probability(
        self,
        p: float,
        *,
        trials: int = 20_000,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Estimate ``Fp`` by Monte-Carlo over grid crash patterns (the exact
        value is :func:`repro.core.analytic.analytic_failure_probability`)."""
        survive = rowcol_survival_estimate(
            self.side, p, *self.alive_lines, trials=trials, rng=rng
        )
        return 1.0 - survive
