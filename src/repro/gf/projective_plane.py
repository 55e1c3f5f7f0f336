"""Finite projective planes PG(2, q).

A projective plane of order ``q`` has ``q^2 + q + 1`` points and the same
number of lines; every line contains ``q + 1`` points, every point lies on
``q + 1`` lines, every two lines meet in exactly one point, and every two
points lie on exactly one line.  The lines therefore form a *regular* quorum
system with optimal load ``≈ 1/sqrt(n)`` — exactly the outer component the
boostFPP construction of Section 6 needs.

This module builds the classical algebraic plane over GF(q): points and lines
are the one-dimensional subspaces of GF(q)^3, represented by their normalised
homogeneous coordinates, and a point lies on a line when the dot product of
their coordinate vectors vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from repro.exceptions import ConstructionError, FieldError
from repro.gf.extension_field import GaloisField

__all__ = ["ProjectivePlane", "projective_plane"]

Vector = tuple[int, int, int]


def _normalised_points(field: GaloisField) -> list[Vector]:
    """Return one representative per projective point, in a canonical order.

    Representatives are normalised so that the first non-zero coordinate is 1:
    ``(1, y, z)``, ``(0, 1, z)`` and ``(0, 0, 1)``.
    """
    q = field.order
    points: list[Vector] = [(1, y, z) for y in range(q) for z in range(q)]
    points.extend((0, 1, z) for z in range(q))
    points.append((0, 0, 1))
    return points


@dataclass(frozen=True)
class ProjectivePlane:
    """A finite projective plane of order ``q``.

    Attributes
    ----------
    order:
        The order ``q``.
    points:
        The ``q^2 + q + 1`` points (normalised homogeneous coordinates).
    lines:
        For each line, the frozenset of indices (into ``points``) of the
        points incident to it.
    """

    order: int
    points: tuple[Vector, ...]
    lines: tuple[frozenset, ...]

    @property
    def num_points(self) -> int:
        """The number of points, ``q^2 + q + 1``."""
        return len(self.points)

    @property
    def line_size(self) -> int:
        """The number of points on each line, ``q + 1``."""
        return self.order + 1

    def point_index(self, point: Vector) -> int:
        """Return the index of a (normalised) point."""
        return self.points.index(point)

    def lines_through(self, point_index: int) -> list[int]:
        """Return the indices of all lines through the given point."""
        return [index for index, line in enumerate(self.lines) if point_index in line]

    def verify(self) -> None:
        """Check the projective-plane axioms; raise ``ConstructionError`` otherwise."""
        q = self.order
        expected = q * q + q + 1
        if len(self.points) != expected or len(self.lines) != expected:
            raise ConstructionError(
                f"PG(2,{q}) must have {expected} points and lines, got "
                f"{len(self.points)} points / {len(self.lines)} lines"
            )
        for line in self.lines:
            if len(line) != q + 1:
                raise ConstructionError(f"a line of PG(2,{q}) must have {q + 1} points")
        for i, first in enumerate(self.lines):
            for second in self.lines[i + 1:]:
                if len(first & second) != 1:
                    raise ConstructionError(
                        f"two distinct lines of PG(2,{q}) must meet in exactly one point"
                    )


@cache
def projective_plane(q: int) -> ProjectivePlane:
    """Construct the algebraic projective plane PG(2, q), once per ``q``.

    The plane is a pure function of ``q`` and immutable, so every caller of
    one order shares the first call's :class:`ProjectivePlane`.

    Parameters
    ----------
    q:
        The order; must be a prime power (GF(q) must exist).

    Raises
    ------
    ConstructionError
        If ``q`` is not a prime power.
    """
    try:
        field = GaloisField(q)
    except FieldError as error:
        raise ConstructionError(
            f"projective plane of order {q} requires q to be a prime power"
        ) from error

    points = _normalised_points(field)
    point_order = {point: index for index, point in enumerate(points)}

    def dot(left: Vector, right: Vector) -> int:
        total = 0
        for a, b in zip(left, right):
            total = field.add(total, field.mul(a, b))
        return total

    # Lines have the same normalised coordinate representatives as points.
    lines: list[frozenset] = []
    for line_vector in points:
        incident = frozenset(
            point_order[point] for point in points if dot(line_vector, point) == 0
        )
        lines.append(incident)

    plane = ProjectivePlane(order=q, points=tuple(points), lines=tuple(lines))
    return plane
