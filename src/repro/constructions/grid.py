"""Grid-based quorum systems.

Two grid systems appear in the paper:

* :class:`RegularGrid` — the classical Maekawa-style grid over a
  ``side x side`` arrangement of servers, whose quorums are one full row plus
  one full column.  It is a *regular* quorum system (``IS = 2``), included as
  a boosting input and as a baseline regular system.
* :class:`MaskingGrid` — the Grid baseline of [MR98a] (second row of
  Table 2): a quorum is one full column together with ``2b + 1`` full rows.
  It masks ``b < sqrt(n)/3`` failures, has load roughly ``2b/sqrt(n)`` and
  its crash probability tends to one.

Both use the element labelling ``(row, column)`` with indices starting at 0.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from repro.core.analytic import rowcol_survival_estimate
from repro.core.masking import can_mask, intersection_count
from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import ConstructionError

__all__ = ["RegularGrid", "MaskingGrid", "grid_side_for", "render_grid_quorum"]


def grid_side_for(n: int) -> int:
    """Return ``sqrt(n)`` for a perfect square ``n``, else raise.

    The grid constructions of the paper assume ``n`` is a perfect square; the
    usual engineering workaround (padding to the next square) changes the
    measures, so this library requires exact squares and says so explicitly.
    """
    side = math.isqrt(n)
    if side * side != n:
        raise ConstructionError(
            f"grid constructions need a perfect-square universe; {n} is not one"
        )
    return side


def _row_mask(side: int, row_index: int) -> int:
    """Bitmask of one full row; element ``(r, c)`` sits at universe bit ``r*side + c``."""
    return ((1 << side) - 1) << (row_index * side)


def _column_mask(side: int, column_index: int) -> int:
    """Bitmask of one full column (one bit every ``side`` positions)."""
    mask = 0
    for row in range(side):
        mask |= 1 << (row * side + column_index)
    return mask


class RegularGrid(QuorumSystem):
    """The Maekawa grid: a quorum is one full row plus one full column.

    It is fair with quorums of size ``2*side - 1``, load ``(2*side - 1)/n``
    (about ``2/sqrt(n)``), ``IS = 2`` and ``MT = side`` — a regular quorum
    system that masks no Byzantine failures but serves as a natural input to
    the boosting transform of Section 6.
    """

    def __init__(self, side: int):
        if side < 2:
            raise ConstructionError(f"grid side must be at least 2, got {side}")
        self.side = side
        self._universe = Universe(
            (row, column) for row in range(side) for column in range(side)
        )
        self.name = f"RegularGrid({side}x{side})"

    @property
    def universe(self) -> Universe:
        return self._universe

    def iter_quorum_masks(self) -> Iterator[int]:
        column_masks = [_column_mask(self.side, column) for column in range(self.side)]
        for row in range(self.side):
            row_mask = _row_mask(self.side, row)
            for column in range(self.side):
                yield row_mask | column_masks[column]

    def num_quorums(self) -> int:
        return self.side * self.side

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """One uniform row plus one uniform column, assembled from line masks."""
        row = int(rng.integers(self.side))
        column = int(rng.integers(self.side))
        return _row_mask(self.side, row) | _column_mask(self.side, column)

    def min_quorum_size(self) -> int:
        return 2 * self.side - 1

    def max_quorum_size(self) -> int:
        return 2 * self.side - 1

    def min_intersection_size(self) -> int:
        return 2 if self.side >= 2 else 1

    def min_transversal_size(self) -> int:
        return self.side

    def load(self) -> float:
        """Return ``(2*side - 1) / n`` (the system is fair)."""
        return (2 * self.side - 1) / self.n

    #: Fully-alive ``(rows, columns)`` an untouched quorum needs: the grid
    #: survives iff some row and some column are completely alive.
    alive_lines = (1, 1)

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


class MaskingGrid(QuorumSystem):
    """The [MR98a] Grid baseline: one full column plus ``2b + 1`` full rows.

    Consistency holds because the column of one quorum crosses the ``2b + 1``
    rows of any other quorum in ``2b + 1`` distinct servers.  The resilience
    is ``f = MT - 1 = side - 2b - 1``, so the construction requires
    ``2b + 1 <= side`` (and is only ``b``-masking while ``f >= b``, i.e.
    ``b <= (side - 1)/3``).
    """

    def __init__(self, side: int, b: int):
        if side < 2:
            raise ConstructionError(f"grid side must be at least 2, got {side}")
        if b < 0:
            raise ConstructionError(f"masking parameter must be >= 0, got {b}")
        self.side = side
        self.b = b
        #: Full rows per quorum, ``2b + 1``.
        self.num_rows = intersection_count(b)
        if self.num_rows > side:
            raise ConstructionError(
                f"MaskingGrid needs 2b+1 <= side; got b={b}, side={side}"
            )
        if not can_mask(self.min_intersection_size(), self.min_transversal_size(), b):
            raise ConstructionError(
                f"MaskingGrid with side={side} can mask at most b={(side - 1) // 3} "
                f"failures (resilience side-2b-1 must be >= b); got b={b}"
            )
        #: Fully-alive ``(rows, columns)`` an untouched quorum needs: ``2b + 1``
        #: rows and some column.
        self.alive_lines = (self.num_rows, 1)
        self._universe = Universe(
            (row, column) for row in range(side) for column in range(side)
        )
        self.name = f"MR98-Grid({side}x{side}, b={b})"

    @property
    def universe(self) -> Universe:
        return self._universe

    def iter_quorum_masks(self) -> Iterator[int]:
        for column in range(self.side):
            column_mask = _column_mask(self.side, column)
            for rows in itertools.combinations(range(self.side), self.num_rows):
                mask = column_mask
                for row in rows:
                    mask |= _row_mask(self.side, row)
                yield mask

    def num_quorums(self) -> int:
        return self.side * math.comb(self.side, self.num_rows)

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """One uniform column plus ``2b + 1`` uniform rows, as a bitmask."""
        column = int(rng.integers(self.side))
        rows = rng.choice(self.side, size=self.num_rows, replace=False)
        mask = _column_mask(self.side, column)
        for row in rows:
            mask |= _row_mask(self.side, int(row))
        return mask

    def min_quorum_size(self) -> int:
        rows_part = self.num_rows * self.side
        column_part = self.side - self.num_rows
        return rows_part + column_part

    def max_quorum_size(self) -> int:
        return self.min_quorum_size()

    def min_intersection_size(self) -> int:
        # Distinct columns and row sets sharing as few rows as possible: a
        # shared row counts in full, every other row of one quorum meets the
        # other quorum's column once.  The row sets must share
        # max(0, 2(2b+1) - side) rows; sharing more (side >= 2 cells each) or
        # the column never shrinks the intersection.
        shared = max(0, 2 * self.num_rows - self.side)
        return shared * self.side + 2 * (self.num_rows - shared)

    def min_transversal_size(self) -> int:
        # A set fails to be a transversal when some column and 2b+1 rows are
        # all untouched; hitting all but 2b rows (side - 2b servers) is the
        # cheapest way to rule that out (hitting every column costs side).
        return self.side - self.num_rows + 1

    def load(self) -> float:
        """Return ``c/n ~ (2b+2)/sqrt(n)`` (the system is fair by symmetry)."""
        return self.min_quorum_size() / self.n

    def crash_probability(
        self,
        p: float,
        *,
        trials: int = 20_000,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Estimate ``Fp`` by Monte-Carlo over grid crash patterns (the exact
        value is :func:`repro.core.analytic.analytic_failure_probability`).

        Like M-Grid's, this probability tends to one as the grid grows
        (Table 2).
        """
        survive = rowcol_survival_estimate(
            self.side, p, *self.alive_lines, trials=trials, rng=rng
        )
        return 1.0 - survive


def render_grid_quorum(side: int, quorum: frozenset, *, filled: str = "#", empty: str = ".") -> str:
    """Return an ASCII rendering of a quorum over a ``side x side`` grid.

    Used by the figure-reproduction benchmarks to produce pictures analogous
    to Figures 1 and 3 of the paper.
    """
    lines = []
    for row in range(side):
        cells = [filled if (row, column) in quorum else empty for column in range(side)]
        lines.append(" ".join(cells))
    return "\n".join(lines)
