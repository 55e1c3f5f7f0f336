"""The finite projective plane as a (regular) quorum system.

The lines of a projective plane of order ``q`` over its ``q^2 + q + 1``
points pairwise intersect in exactly one point, so they form a regular
quorum system with quorums of size ``q + 1`` and optimal load
``(q + 1)/n ~ 1/sqrt(n)`` [NW98].  It is the outer component of the boostFPP
construction of Section 6; on its own it masks no Byzantine failure
(``IS = 1``) and its crash probability tends to one.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.availability import validate_probability
from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.gf.projective_plane import ProjectivePlane, projective_plane

__all__ = ["FiniteProjectivePlane"]


class FiniteProjectivePlane(QuorumSystem):
    """The quorum system whose quorums are the lines of PG(2, q).

    Parameters
    ----------
    q:
        The plane order; must be a prime power.  The universe elements are
        the integers ``0 .. q^2 + q`` indexing the plane's points.
    """

    def __init__(self, q: int):
        self.q = q
        self._plane: ProjectivePlane = projective_plane(q)
        self._universe = Universe.of_size(self._plane.num_points)
        self.name = f"FPP({q})"

    @property
    def plane(self) -> ProjectivePlane:
        """The underlying incidence structure."""
        return self._plane

    @property
    def universe(self) -> Universe:
        return self._universe

    def iter_quorum_masks(self) -> Iterator[int]:
        # Points are the integers 0..q^2+q in universe order, so a line's
        # bitmask is the sum of its point bits.
        for line in self._plane.lines:
            mask = 0
            for point in line:
                mask |= 1 << point
            yield mask

    def num_quorums(self) -> int:
        return len(self._plane.lines)

    # ------------------------------------------------------------------
    # Analytic measures (Section 6, first paragraphs).
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        return self.q + 1

    def max_quorum_size(self) -> int:
        return self.q + 1

    def min_intersection_size(self) -> int:
        return 1

    def min_transversal_size(self) -> int:
        # The only transversals of size q + 1 are the lines themselves; no
        # smaller set can meet every line.
        return self.q + 1

    def load(self) -> float:
        """Return ``(q+1)/n ~ 1/sqrt(n)``, optimal for regular systems [NW98]."""
        return (self.q + 1) / self.n

    def crash_probability_upper_bound(self, p: float) -> float:
        """Return the bound ``min(1, (q+1) p)`` from equation (6) of the paper.

        ``Fp(FPP) <= 1 - (1-p)^(q+1) <= (q+1) p``: the plane survives whenever
        one fixed line survives.  The true ``Fp`` still tends to one as the
        plane grows [RST92], which is why boostFPP's availability is only
        good for ``p < 1/4``.
        """
        validate_probability(p)
        return min(1.0, (self.q + 1) * p)
