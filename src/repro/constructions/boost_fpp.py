"""Boosted finite projective planes (Section 6) and the general boosting transform.

``boostFPP(q, b) = FPP(q) ∘ Thresh(3b+1 of 4b+1)``: every point of a
projective plane of order ``q`` is replaced by a disjoint copy of the
``(3b+1)``-of-``(4b+1)`` threshold system.  By Theorem 4.7 the composition
has

* ``n = (4b+1)(q^2+q+1)`` servers,
* quorums of size ``(3b+1)(q+1)``,
* ``IS = 2b+1`` and ``MT = (b+1)(q+1)``,

so it is a ``b``-masking system with *optimal* load ``≈ 3/(4q)``
(Proposition 6.2) and crash probability at most
``(q+1) exp(-b(1-4p)^2 / 2)`` for ``p < 1/4`` (Proposition 6.3).

The same composition applied to *any* regular quorum system is the boosting
technique the paper highlights: :func:`boost_masking` turns a benign-fault
quorum system into a ``b``-masking one over a universe ``4b + 1`` times
larger.

Quorum bitmasks come for free from the composition layer: each plane point's
threshold copy occupies a contiguous bit range, so boosted quorums are ORs of
shifted block masks (see
:meth:`repro.core.composition.ComposedQuorumSystem.iter_quorum_masks`).
See ``docs/notation.md`` for the notation glossary (boosting, b-masking).
"""

from __future__ import annotations

import math

from repro.constructions.fpp import FiniteProjectivePlane
from repro.constructions.threshold import ThresholdQuorumSystem, boosting_block
from repro.core.availability import validate_probability
from repro.core.composition import ComposedQuorumSystem
from repro.core.masking import intersection_count
from repro.core.quorum_system import QuorumSystem
from repro.exceptions import ConstructionError

__all__ = ["BoostedFPP", "boost_masking"]


class BoostedFPP(ComposedQuorumSystem):
    """The boostFPP(q, b) system: FPP(q) composed over Thresh(3b+1 of 4b+1).

    Parameters
    ----------
    q:
        Order of the projective plane (prime power).
    b:
        Masking parameter; the inner block has ``4b + 1`` servers.
    """

    def __init__(self, q: int, b: int):
        if b < 1:
            raise ConstructionError(
                f"boostFPP needs b >= 1 (b = 0 degenerates to the plain FPP); got {b}"
            )
        outer = FiniteProjectivePlane(q)
        inner = boosting_block(b)
        super().__init__(outer, inner, name=f"boostFPP(q={q}, b={b})")
        self.q = q
        self.b = b

    @property
    def plane(self) -> FiniteProjectivePlane:
        """The outer projective-plane component."""
        return self.outer

    @property
    def threshold_block(self) -> ThresholdQuorumSystem:
        """The inner threshold component."""
        return self.inner

    # ------------------------------------------------------------------
    # Proposition 6.1: combinatorial parameters (also available through the
    # generic Theorem 4.7 algebra of the parent class; restated here so the
    # values can be checked against the paper's closed forms).
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        return (3 * self.b + 1) * (self.q + 1)

    def min_intersection_size(self) -> int:
        return intersection_count(self.b)

    def min_transversal_size(self) -> int:
        return (self.b + 1) * (self.q + 1)

    def load(self) -> float:
        """Return ``c/n = (3b+1)(q+1) / ((4b+1)(q^2+q+1)) ≈ 3/(4q)`` (Proposition 6.2)."""
        return self.min_quorum_size() / self.n

    # ------------------------------------------------------------------
    # Proposition 6.3: availability.
    # ------------------------------------------------------------------
    def crash_probability(self, p: float, **_: object) -> float:
        """Return the composed upper estimate ``(1 - (1-r)^(q+1))`` with ``r = Fp(Thresh)``.

        The inner threshold block's crash probability ``r(p)`` is exact (a
        binomial tail); the outer plane's crash probability is bounded by the
        probability that one fixed line dies, ``1 - (1 - r)^(q+1)``
        (equation (6)).  The result is therefore an upper bound on the true
        ``Fp``, tight for small ``r``, and the quantity the paper's Section 8
        comparison uses.
        """
        validate_probability(p)
        inner_failure = self.threshold_block.crash_probability(p)
        return 1.0 - (1.0 - inner_failure) ** (self.q + 1)

    def crash_probability_chernoff_bound(self, p: float) -> float:
        """Return Proposition 6.3's closed form ``(q+1) exp(-b (1-4p)^2 / 2)``.

        Only meaningful for ``p < 1/4`` (the bound is clipped at 1 otherwise).
        """
        validate_probability(p)
        if p >= 0.25:
            return 1.0
        bound = (self.q + 1) * math.exp(-self.b * (1.0 - 4.0 * p) ** 2 / 2.0)
        return min(1.0, bound)


def boost_masking(regular_system: QuorumSystem, b: int) -> ComposedQuorumSystem:
    """Boost a regular quorum system into a ``b``-masking one (Section 6's technique).

    The result is ``regular_system ∘ Thresh(3b+1 of 4b+1)``: by Theorem 4.7
    its minimal intersection is ``IS(regular) * (2b+1) >= 2b+1`` and its
    minimal transversal is ``MT(regular) * (b+1) >= b+1``, so by Lemma 3.6 it
    is ``b``-masking whatever the (regular) input system was.

    Parameters
    ----------
    regular_system:
        Any quorum system (``IS >= 1``); typically a benign-fault-tolerant
        construction such as a grid, majority, or crumbling wall.
    b:
        The desired masking parameter.
    """
    if b < 0:
        raise ConstructionError(f"masking parameter must be >= 0, got {b}")
    block = boosting_block(b)
    return ComposedQuorumSystem(
        regular_system, block, name=f"boost({regular_system.name}, b={b})"
    )
