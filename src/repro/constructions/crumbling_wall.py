"""Crumbling-wall quorum systems [PW97b].

A crumbling wall arranges the universe in rows ("courses") of possibly
different widths; a quorum is one full row together with a single
representative from every row *below* it.  Any two quorums intersect (the
lower full row meets the other quorum's representative in that row), so the
wall is a regular quorum system.

Crumbling walls are cited in the paper's related work as practical
benign-fault quorum systems; this implementation exists mainly as an input
for the boosting transform of Section 6 (``boost_masking``), demonstrating
that the transform works on irregular, non-fair systems too.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import ConstructionError

__all__ = ["CrumblingWall"]


class CrumblingWall(QuorumSystem):
    """A crumbling wall with the given row widths.

    Parameters
    ----------
    row_widths:
        Width of each row, top to bottom.  Every width must be positive and
        there must be at least one row.  Elements are labelled
        ``(row, position)``.
    """

    def __init__(self, row_widths: Sequence[int]):
        widths = tuple(int(width) for width in row_widths)
        if not widths:
            raise ConstructionError("a crumbling wall needs at least one row")
        if any(width <= 0 for width in widths):
            raise ConstructionError(f"row widths must be positive, got {widths}")
        self.row_widths = widths
        self._universe = Universe(
            (row, position) for row, width in enumerate(widths) for position in range(width)
        )
        self.name = f"CrumblingWall({list(widths)})"

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def num_rows(self) -> int:
        """The number of rows (courses) in the wall."""
        return len(self.row_widths)

    def iter_quorum_masks(self) -> Iterator[int]:
        # Rows are laid out consecutively in the universe, so the bit of
        # element (row, position) is row_offset + position.
        offsets = self._row_offsets()
        row_masks = [
            ((1 << width) - 1) << offsets[row] for row, width in enumerate(self.row_widths)
        ]
        for row_index in range(self.num_rows):
            lower_offsets = offsets[row_index + 1:]
            lower_widths = self.row_widths[row_index + 1:]
            base = row_masks[row_index]
            for representatives in itertools.product(
                *(range(width) for width in lower_widths)
            ):
                mask = base
                for lower_offset, position in zip(lower_offsets, representatives):
                    mask |= 1 << (lower_offset + position)
                yield mask

    def num_quorums(self) -> int:
        total = 0
        for row_index in range(self.num_rows):
            product = 1
            for width in self.row_widths[row_index + 1:]:
                product *= width
            total += product
        return total

    def _row_offsets(self) -> tuple[int, ...]:
        """Universe bit offset of each row's first element (rows are contiguous)."""
        cached = getattr(self, "_row_offset_cache", None)
        if cached is None:
            offsets = []
            offset = 0
            for width in self.row_widths:
                offsets.append(offset)
                offset += width
            cached = tuple(offsets)
            self._row_offset_cache = cached
        return cached

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """One uniform full row plus one representative per lower row, as a bitmask."""
        offsets = self._row_offsets()
        row_index = int(rng.integers(self.num_rows))
        mask = ((1 << self.row_widths[row_index]) - 1) << offsets[row_index]
        for lower in range(row_index + 1, self.num_rows):
            position = int(rng.integers(self.row_widths[lower]))
            mask |= 1 << (offsets[lower] + position)
        return mask

    def min_quorum_size(self) -> int:
        return min(
            self.row_widths[row_index] + (self.num_rows - row_index - 1)
            for row_index in range(self.num_rows)
        )

    def min_transversal_size(self) -> int:
        # Hitting every quorum requires hitting, for every row i, either the
        # full row i or all the "representative" positions below it; the
        # cheapest transversal is the last (bottom) row when it is narrow, or
        # one element per row otherwise.  For the wall shapes used in this
        # library (bottom row of width 1 or small) the bottom row is a
        # transversal; fall back to the generic computation otherwise.
        if self.row_widths[-1] == 1:
            return 1
        return super().min_transversal_size()
