"""Quorum-system composition (Definition 4.6 and Theorem 4.7).

The composition ``S ∘ R`` replaces every element ``i`` of the outer system
``S`` with a disjoint copy ``R_i`` of the inner system ``R``; a quorum of the
composition is obtained by choosing a quorum ``S`` of the outer system and,
for every ``i`` in it, a quorum of ``R_i``.

Theorem 4.7 gives the algebra of the composition:

=====================  ==========================================
universe size          ``n = n_S · n_R``
minimal quorum         ``c = c(S) · c(R)``
minimal intersection   ``IS = IS(S) · IS(R)``
minimal transversal    ``MT = MT(S) · MT(R)``
crash probability      ``Fp(S∘R) = s(r(p))`` with ``s = Fp(S)``, ``r = Fp(R)``
load                   ``L(S∘R) = L(S) · L(R)``
=====================  ==========================================

The composed system is exposed both lazily (:class:`ComposedQuorumSystem`
enumerates quorums on demand and reports the Theorem 4.7 values without
enumeration) and eagerly (:meth:`ComposedQuorumSystem.to_explicit` for small
systems, used heavily by the test-suite to validate the theorem).  Because
copy ``i`` of the inner universe occupies a contiguous bit range of the
composed universe, composed quorum bitmasks are ORs of shifted inner masks
(see :meth:`ComposedQuorumSystem.iter_quorum_masks`).

See ``docs/notation.md`` for the notation glossary.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from repro.core import analytic, bitset
from repro.core.load import exact_load
from repro.core.quorum_system import ExplicitQuorumSystem, QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import ComputationError, InvalidParameterError

__all__ = ["ComposedQuorumSystem", "compose", "self_compose"]


class ComposedQuorumSystem(QuorumSystem):
    """The composition ``S ∘ R`` of two quorum systems.

    Elements of the composed universe are pairs ``(i, r)`` where ``i`` is an
    element of the outer universe and ``r`` an element of the inner universe:
    the ``i``-th copy of the inner system lives on ``{(i, r) : r in R}``.
    """

    def __init__(self, outer: QuorumSystem, inner: QuorumSystem, *, name: str | None = None):
        self._outer = outer
        self._inner = inner
        copies = [inner.universe.relabel(i) for i in outer.universe]
        self._universe = Universe.disjoint_union(copies)
        self.name = name or f"{outer.name}∘{inner.name}"

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    @property
    def outer(self) -> QuorumSystem:
        """The outer component ``S``."""
        return self._outer

    @property
    def inner(self) -> QuorumSystem:
        """The inner component ``R``."""
        return self._inner

    @property
    def universe(self) -> Universe:
        return self._universe

    def iter_quorum_masks(self) -> Iterator[int]:
        """Yield the composed quorums.

        Copy ``i`` (the ``i``-th outer element in universe order) occupies the
        contiguous bit range ``[i * n_R, (i + 1) * n_R)`` of the composed
        universe, so a tagged inner quorum is just the inner quorum's mask
        shifted by the copy offset, and a composed quorum is the OR of one
        shifted mask per chosen copy.
        """
        inner_size = self._inner.n
        inner_masks = self._inner.quorum_masks()
        outer_universe = self._outer.universe
        shifted_masks = [
            tuple(mask << (copy * inner_size) for mask in inner_masks)
            for copy in range(outer_universe.size)
        ]
        for outer_mask in self._outer.quorum_masks():
            # Copies vary slowest-first in label-repr order: the enumeration
            # order is observable (LP strategies index into it).
            copies = sorted(
                bitset.iter_bit_indices(outer_mask),
                key=lambda copy: repr(outer_universe.element_at(copy)),
            )
            for choice in itertools.product(*(shifted_masks[copy] for copy in copies)):
                combined_mask = 0
                for shifted in choice:
                    combined_mask |= shifted
                yield combined_mask

    def num_quorums(self) -> int:
        """Return the number of quorums without enumerating them."""
        inner_count = self._inner.num_quorums()
        return sum(
            inner_count ** outer_mask.bit_count() for outer_mask in self._outer.quorum_masks()
        )

    # ------------------------------------------------------------------
    # Theorem 4.7: combinatorial parameters.
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        return self._outer.min_quorum_size() * self._inner.min_quorum_size()

    def max_quorum_size(self) -> int:
        return self._outer.max_quorum_size() * self._inner.max_quorum_size()

    def min_intersection_size(self) -> int:
        return self._outer.min_intersection_size() * self._inner.min_intersection_size()

    def min_transversal_size(self) -> int:
        return self._outer.min_transversal_size() * self._inner.min_transversal_size()

    def fairness(self) -> tuple[int, int] | None:
        outer_fairness = self._outer.fairness()
        inner_fairness = self._inner.fairness()
        if outer_fairness is None or inner_fairness is None:
            return None
        outer_size, outer_degree = outer_fairness
        inner_size, inner_degree = inner_fairness
        # Each composed quorum has outer_size * inner_size elements.  A fixed
        # element (i, r) appears once for every outer quorum containing i,
        # every inner quorum containing r, and every free choice on the other
        # outer-quorum positions.
        inner_count = self._inner.num_quorums()
        degree = outer_degree * inner_degree * inner_count ** (outer_size - 1)
        return outer_size * inner_size, degree

    # ------------------------------------------------------------------
    # Theorem 4.7: load and availability.
    # ------------------------------------------------------------------
    def load(self) -> float:
        """Return ``L(S) · L(R)``: each factor's closed form, the LP for a
        factor that has none."""

        def factor_load(factor: QuorumSystem) -> float:
            try:
                return analytic.analytic_load(factor).load
            except ComputationError:
                return exact_load(factor).load

        return factor_load(self._outer) * factor_load(self._inner)

    def crash_probability(self, p: float) -> float:
        """Return ``Fp(S∘R) = s(r(p))`` (modular decomposition of reliability);
        raises :class:`ComputationError` when a factor has no closed form."""
        return analytic.analytic_failure_probability(self, p).value

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """Sample a quorum with the product strategy of Theorem 4.7's proof:
        an outer quorum, then an inner quorum for each of its copies in
        universe order."""
        inner_size = self._inner.n
        combined_mask = 0
        for copy in bitset.iter_bit_indices(self._outer.sample_quorum_mask(rng)):
            combined_mask |= self._inner.sample_quorum_mask(rng) << (copy * inner_size)
        return combined_mask

    # ------------------------------------------------------------------
    # Conversion.
    # ------------------------------------------------------------------
    def to_explicit(self, *, limit: int = 200_000) -> ExplicitQuorumSystem:
        """Materialise the composition (only sensible for small components)."""
        return ExplicitQuorumSystem.from_masks(
            self._universe, self.quorum_masks(limit=limit), name=self.name
        )


def compose(outer: QuorumSystem, inner: QuorumSystem, *, name: str | None = None) -> ComposedQuorumSystem:
    """Return the composition ``outer ∘ inner`` (Definition 4.6)."""
    return ComposedQuorumSystem(outer, inner, name=name)


def self_compose(system: QuorumSystem, depth: int, *, name: str | None = None) -> QuorumSystem:
    """Compose ``system`` over itself ``depth - 1`` times.

    ``self_compose(R, 1)`` is ``R`` itself, ``self_compose(R, 2)`` is
    ``R ∘ R``, and so on.  This is the recursive construction underlying the
    RT systems of Section 5.2.
    """
    if depth < 1:
        raise InvalidParameterError(f"depth must be >= 1, got {depth}")
    result: QuorumSystem = system
    for _ in range(depth - 1):
        result = ComposedQuorumSystem(system, result)
    if name is not None:
        result.name = name
    return result
