"""Transversals (hitting sets) of set systems.

A *transversal* of a quorum system ``Q`` is a set ``T`` that intersects every
quorum (Definition 3.3).  The size of the smallest transversal, ``MT(Q)``,
determines the resilience of the system: ``f = MT(Q) - 1`` (the remark after
Definition 3.4), because crashing a full minimal transversal disables every
quorum, while any smaller crash set leaves some quorum untouched.

Computing a minimum hitting set is NP-hard in general.  The one solver is
:func:`minimal_transversal_mask`, which works on ``int`` bitmasks end to end
(deduplication, superset reduction, search) and is what
:class:`~repro.core.quorum_system.QuorumSystem` hands its ``quorum_masks()``
to.  Its default engine encodes the problem as a small binary integer
program solved by HiGHS (:func:`scipy.optimize.milp`); a pure-Python
branch-and-bound engine, seeded with the classical ``ln m`` greedy
approximation, is also available (``engine="branch-and-bound"``) and serves
as an independent cross-check in the test-suite.

The frozenset functions are the labelled boundary for callers holding bare
collections of sets with no universe attached: :func:`minimal_transversal`,
:func:`minimal_transversal_size` and :func:`greedy_transversal` encode their
input once over a throwaway element index, run the mask routine and decode
the answer; :func:`is_transversal` is the verification helper.

See ``docs/notation.md`` for the notation glossary (MT, transversal, f).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Hashable, Iterable

import numpy as np

from repro.core import bitset as bitset_mod
from repro.exceptions import ComputationError

__all__ = [
    "is_transversal",
    "greedy_transversal",
    "minimal_transversal",
    "minimal_transversal_mask",
    "minimal_transversal_size",
]


# ----------------------------------------------------------------------
# The mask-native solver.
# ----------------------------------------------------------------------
def _reduce_masks(masks: Iterable[int]) -> list[int]:
    """Deduplicate and drop supersets (they never constrain the optimum).

    The survivors are ordered by size (ties in first-seen order), so the
    first uncovered mask of the result is always a smallest one.
    """
    reduced: list[int] = []
    for mask in sorted(dict.fromkeys(masks), key=int.bit_count):
        if not any(smaller & mask == smaller for smaller in reduced):
            reduced.append(mask)
    return reduced


def _greedy_mask(masks: Iterable[int]) -> int:
    """Hit ``masks`` by repeatedly picking the most frequent bit."""
    remaining = list(masks)
    chosen = 0
    while remaining:
        counts = Counter(bit for mask in remaining for bit in bitset_mod.iter_bit_indices(mask))
        bit, _ = counts.most_common(1)[0]
        chosen |= 1 << bit
        remaining = [mask for mask in remaining if not mask >> bit & 1]
    return chosen


def _minimal_transversal_milp(reduced: list[int]) -> int:
    """Solve the minimum hitting set as a binary integer program (HiGHS)."""
    from scipy import optimize, sparse

    num_bits = max(mask.bit_length() for mask in reduced)
    # One column per bit position, in bit order; a position no mask uses is
    # an unconstrained unit-cost variable and stays 0 at the optimum.
    coverage = sparse.csr_matrix(bitset_mod.incidence_from_masks(reduced, num_bits), dtype=float)
    result = optimize.milp(
        c=np.ones(num_bits),
        constraints=optimize.LinearConstraint(coverage, lb=1, ub=np.inf),
        integrality=np.ones(num_bits),
        bounds=optimize.Bounds(0, 1),
    )
    if not result.success:
        raise ComputationError(f"hitting-set integer program failed: {result.message}")
    chosen = 0
    for position in np.nonzero(result.x > 0.5)[0]:
        chosen |= 1 << int(position)
    if not all(chosen & mask for mask in reduced):
        raise ComputationError("integer program returned a non-transversal (numerical issue)")
    return chosen


def _minimal_transversal_branch_and_bound(reduced: list[int]) -> int:
    """Exact search branching on the smallest uncovered set, pruned by the incumbent."""
    best = _greedy_mask(reduced)

    def search(chosen: int) -> None:
        nonlocal best
        if chosen.bit_count() >= best.bit_count():
            return
        # ``reduced`` is size-sorted: the first uncovered mask is a smallest one.
        target = next((mask for mask in reduced if not mask & chosen), 0)
        if not target:
            best = chosen
            return
        for bit in bitset_mod.iter_bit_indices(target):
            search(chosen | 1 << bit)

    search(0)
    return best


def minimal_transversal_mask(
    masks: Iterable[int],
    *,
    engine: str = "milp",
    max_sets: int = 100_000,
) -> int:
    """Return a minimum-cardinality transversal of ``masks``, as a bitmask.

    Parameters
    ----------
    masks:
        The sets to hit, as ``int`` bitmasks over one shared bit order.  An
        empty collection has the empty set (``0``) as its trivial
        transversal; an empty *set* (a ``0`` mask) cannot be hit.
    engine:
        ``"milp"`` (default; binary integer program solved by HiGHS) or
        ``"branch-and-bound"`` (pure Python, only sensible for small
        instances but independent of scipy — used as a cross-check).
    max_sets:
        Guard against running an exact algorithm over an absurdly large
        quorum list.

    Returns
    -------
    int
        A smallest transversal.  ``MT`` is its ``bit_count()``.
    """
    masks = list(masks)
    if not masks:
        return 0
    if 0 in masks:
        raise ComputationError("cannot hit an empty set; no transversal exists")
    if len(masks) > max_sets:
        raise ComputationError(
            f"refusing exact transversal search over {len(masks)} sets "
            f"(limit {max_sets}); use greedy_transversal or an analytic bound"
        )
    reduced = _reduce_masks(masks)
    if engine == "milp":
        return _minimal_transversal_milp(reduced)
    if engine == "branch-and-bound":
        return _minimal_transversal_branch_and_bound(reduced)
    raise ComputationError(f"unknown transversal engine {engine!r}")


# ----------------------------------------------------------------------
# The labelled boundary.
# ----------------------------------------------------------------------
def _local_masks(groups: Iterable[Iterable[Hashable]]) -> tuple[list[int], list[Hashable]]:
    """Encode ``groups`` as bitmasks over a local first-seen element order.

    The labelled functions accept bare collections of sets (no universe
    attached), so a throwaway index is built on the fly; the element list
    (position ``i`` is bit ``i``) decodes the answer.
    """
    index: dict[Hashable, int] = {}
    masks: list[int] = []
    for group in groups:
        mask = 0
        for element in group:
            mask |= 1 << index.setdefault(element, len(index))
        masks.append(mask)
    return masks, list(index)


def _decode(mask: int, elements: list[Hashable]) -> frozenset:
    return frozenset(elements[bit] for bit in bitset_mod.iter_bit_indices(mask))


def is_transversal(candidate: Collection[Hashable], sets: Iterable[frozenset]) -> bool:
    """Return ``True`` when ``candidate`` intersects every set in ``sets``."""
    members = frozenset(candidate)
    return all(members & group for group in sets)


def greedy_transversal(sets: Collection[frozenset]) -> frozenset:
    """Return a transversal built by repeatedly picking the most frequent element.

    The result is an upper bound on the minimum transversal; it is within a
    logarithmic factor of optimal, which is good enough to seed the exact
    branch-and-bound search with a useful incumbent.
    """
    masks, elements = _local_masks(sets)
    return _decode(_greedy_mask(masks), elements)


def minimal_transversal(
    sets: Collection[frozenset],
    *,
    engine: str = "milp",
    max_sets: int = 100_000,
) -> frozenset:
    """Return a minimum-cardinality transversal of ``sets``.

    The labelled form of :func:`minimal_transversal_mask` (same ``engine``
    and ``max_sets``): ``sets`` must be non-empty sets, and an empty input
    collection has the empty set as its (trivial) transversal.

    Returns
    -------
    frozenset
        A smallest transversal.  ``MT`` is its length.
    """
    masks, elements = _local_masks(sets)
    return _decode(
        minimal_transversal_mask(masks, engine=engine, max_sets=max_sets), elements
    )


def minimal_transversal_size(
    sets: Collection[frozenset],
    *,
    engine: str = "milp",
    max_sets: int = 100_000,
) -> int:
    """Return ``MT``, the size of the smallest transversal of ``sets``."""
    return len(minimal_transversal(sets, engine=engine, max_sets=max_sets))
