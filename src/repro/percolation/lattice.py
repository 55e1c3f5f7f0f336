"""The triangulated square grid used by the M-Path construction (Section 7).

Vertices are the integer points ``(i, j)`` with ``1 <= i, j <= side``.  The
paper's triangulation has an edge between ``(i1, j1)`` and ``(i2, j2)`` when
one of the following holds:

1. ``i1 == i2`` and ``j2 == j1 + 1``   (vertical neighbour),
2. ``j1 == j2`` and ``i2 == i1 + 1``   (horizontal neighbour),
3. ``i2 == i1 - 1`` and ``j2 == j1 + 1``  (the triangulating diagonal).

Site percolation on this lattice has critical probability ``1/2`` (Kesten),
which is what gives M-Path its optimal availability for every ``p < 1/2``.
"""

from __future__ import annotations

from functools import cached_property

from repro.exceptions import ConstructionError

__all__ = ["TriangularGrid"]

Vertex = tuple[int, int]

#: Offsets realising conditions (i)-(iii) of the paper plus their reverses,
#: so that adjacency is symmetric.
_NEIGHBOUR_OFFSETS: tuple[tuple[int, int], ...] = (
    (0, 1),
    (0, -1),
    (1, 0),
    (-1, 0),
    (-1, 1),
    (1, -1),
)


class TriangularGrid:
    """A triangulated ``side x side`` grid.

    The first coordinate ``i`` is the column (1 = left side, ``side`` =
    right side), the second coordinate ``j`` is the row (1 = bottom,
    ``side`` = top), matching the paper's point set
    ``{(i, j) : 1 <= i, j <= sqrt(n)}``.
    """

    def __init__(self, side: int):
        if side < 2:
            raise ConstructionError(f"grid side must be at least 2, got {side}")
        self.side = side
        span = range(1, side + 1)
        self._vertices: tuple[Vertex, ...] = tuple((i, j) for i in span for j in span)

    @property
    def num_vertices(self) -> int:
        """The number of vertices, ``side ** 2``."""
        return self.side * self.side

    def vertices(self) -> tuple[Vertex, ...]:
        """Return every vertex in column-major order (``i`` outer, ``j`` inner)."""
        return self._vertices

    def contains(self, vertex: Vertex) -> bool:
        """Return ``True`` when ``vertex`` lies on the grid."""
        i, j = vertex
        return 1 <= i <= self.side and 1 <= j <= self.side

    @cached_property
    def _adjacency(self) -> dict[Vertex, tuple[Vertex, ...]]:
        """Every vertex's neighbours, built on the first :meth:`neighbours` call."""
        return {
            (i, j): tuple(
                filter(self.contains, ((i + di, j + dj) for di, dj in _NEIGHBOUR_OFFSETS))
            )
            for i, j in self._vertices
        }

    def neighbours(self, vertex: Vertex) -> tuple[Vertex, ...]:
        """Return the lattice neighbours of the grid vertex ``vertex`` (degree up to 6)."""
        return self._adjacency[vertex]

    # ------------------------------------------------------------------
    # Boundary sets used by the crossing events LR and TB.
    # ------------------------------------------------------------------
    def left_side(self) -> list[Vertex]:
        """Vertices on the left boundary (``i = 1``)."""
        return [(1, j) for j in range(1, self.side + 1)]

    def right_side(self) -> list[Vertex]:
        """Vertices on the right boundary (``i = side``)."""
        return [(self.side, j) for j in range(1, self.side + 1)]

    def bottom_side(self) -> list[Vertex]:
        """Vertices on the bottom boundary (``j = 1``)."""
        return [(i, 1) for i in range(1, self.side + 1)]

    def top_side(self) -> list[Vertex]:
        """Vertices on the top boundary (``j = side``)."""
        return [(i, self.side) for i in range(1, self.side + 1)]

    def row(self, j: int) -> list[Vertex]:
        """Return the straight horizontal path at height ``j`` (an LR path)."""
        if not 1 <= j <= self.side:
            raise ConstructionError(f"row index {j} outside [1, {self.side}]")
        return [(i, j) for i in range(1, self.side + 1)]

    def column(self, i: int) -> list[Vertex]:
        """Return the straight vertical path at column ``i`` (a TB path)."""
        if not 1 <= i <= self.side:
            raise ConstructionError(f"column index {i} outside [1, {self.side}]")
        return [(i, j) for j in range(1, self.side + 1)]

    def is_lr_path(self, path: list[Vertex]) -> bool:
        """Return ``True`` when ``path`` is a left-to-right lattice path."""
        return self._is_path(path) and path[0][0] == 1 and path[-1][0] == self.side

    def is_tb_path(self, path: list[Vertex]) -> bool:
        """Return ``True`` when ``path`` is a top-to-bottom lattice path."""
        return self._is_path(path) and path[0][1] == 1 and path[-1][1] == self.side

    def _is_path(self, path: list[Vertex]) -> bool:
        if not path or not all(self.contains(vertex) for vertex in path):
            return False
        if len(set(path)) != len(path):
            return False
        return all(
            second in self.neighbours(first) for first, second in zip(path, path[1:])
        )

    def __repr__(self) -> str:
        return f"TriangularGrid(side={self.side})"
