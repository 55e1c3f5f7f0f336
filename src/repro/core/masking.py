"""Verification of the b-masking property (Definitions 3.4 and 3.5).

A quorum system is *b-masking* when

1. it is resilient to at least ``b`` failures — for every set ``K`` of ``b``
   servers some quorum avoids ``K`` entirely (Definition 3.4), and
2. every two quorums intersect in at least ``2b + 1`` servers
   (the consistency requirement (1) in Definition 3.5).

This module is the one home of the counts derived from ``b`` (the vouch
count ``b + 1``, the intersection count ``2b + 1``), of Lemma 3.6 on a pair
``(IS, MT)`` (:func:`can_mask`) and of Corollary 3.7 (:func:`largest_b`).
It also provides the *literal* checks, used by the test-suite to validate
that fast path and by users who want an explicit certificate or
counterexample.  The pairwise-intersection sweep runs on the bit-packed
quorum list of :mod:`repro.core.bitset` rather than on frozensets.

See ``docs/notation.md`` for the notation glossary (b-masking, IS, MT, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bitset import mask_to_frozenset
from repro.exceptions import MaskingViolationError

if TYPE_CHECKING:  # circular at runtime: quorum_system imports this module
    from repro.core.quorum_system import QuorumSystem

__all__ = [
    "MaskingReport",
    "can_mask",
    "intersection_count",
    "largest_b",
    "vouch_threshold",
    "check_consistency",
    "check_resilience",
    "verify_masking",
    "masking_report",
]


def vouch_threshold(b: int) -> int:
    """Lemma 3.6's vouch count: ``b + 1`` identical reports include an honest
    one, while a forged pair gathers at most ``b``.  Every path that judges a
    read uses it."""
    return b + 1


def intersection_count(b: int) -> int:
    """``2b + 1``: the least ``|Q1 ∩ Q2|`` of a ``b``-masking system (Definition 3.5)."""
    return 2 * b + 1


def can_mask(intersection: int, transversal: int, b: int) -> bool:
    """Lemma 3.6: ``IS >= 2b + 1`` and ``MT > b`` (no ``b`` servers hit every
    quorum) make a system ``b``-masking."""
    return transversal > b and intersection >= intersection_count(b)


def largest_b(intersection: int, transversal: int) -> int:
    """Corollary 3.7: the largest ``b`` with :func:`can_mask`,
    ``min{MT - 1, (IS - 1) // 2}`` and at least ``0``."""
    return max(0, min(transversal - 1, (intersection - 1) // 2))


@dataclass(frozen=True)
class MaskingReport:
    """Summary of a masking verification.

    Attributes
    ----------
    b:
        The masking parameter that was checked.
    consistent:
        Whether every pair of quorums intersects in at least ``2b+1`` servers.
    resilient:
        Whether every ``b``-set of servers avoids some quorum.
    violating_pair:
        A pair of quorums with too small an intersection, if any.
    blocking_set:
        A ``b``-set of servers hitting every quorum, if any.
    """

    b: int
    consistent: bool
    resilient: bool
    violating_pair: tuple[frozenset, frozenset] | None = None
    blocking_set: frozenset | None = None

    @property
    def is_masking(self) -> bool:
        """Whether the system is a ``b``-masking quorum system."""
        return self.consistent and self.resilient


def check_consistency(system: QuorumSystem, b: int) -> tuple[frozenset, frozenset] | None:
    """Return a pair of quorums violating ``|Q1 ∩ Q2| >= 2b+1``, or ``None``.

    This is the consistency requirement (1) of Definition 3.5, checked
    exhaustively over all quorum pairs by vectorised popcount on the
    bit-packed quorum list; only the witness pair (in enumeration order) is
    mapped back to frozensets.
    """
    required = intersection_count(b)
    engine = system.bitset_engine()
    if engine.num_quorums == 1:
        pair = (0, 0) if engine.min_quorum_size() < required else None
    else:
        pair = engine.first_pair_intersecting_below(required)
    if pair is None:
        return None
    first, second = (mask_to_frozenset(engine.masks[index], system.universe) for index in pair)
    return first, second


def check_resilience(system: QuorumSystem, b: int) -> frozenset | None:
    """Return a ``b``-set of servers that hits every quorum, or ``None``.

    Definition 3.4 requires that for every set ``K`` of ``b`` servers some
    quorum is disjoint from ``K``.  Rather than enumerating all ``C(n, b)``
    candidate sets, we use the equivalence with transversals: such a ``K``
    exists exactly when ``MT(Q) <= b``, and the minimal transversal itself is
    a witness (padded to size ``b`` if needed, which preserves the hitting
    property).
    """
    if b <= 0:
        return None
    min_transversal = system.minimal_transversal()
    if len(min_transversal) > b:
        return None
    padding_needed = b - len(min_transversal)
    if padding_needed == 0:
        return min_transversal
    extra = [
        element for element in system.universe if element not in min_transversal
    ][:padding_needed]
    return frozenset(min_transversal | set(extra))


def masking_report(system: QuorumSystem, b: int) -> MaskingReport:
    """Return a full :class:`MaskingReport` for masking parameter ``b``."""
    if b < 0:
        raise MaskingViolationError(f"masking parameter must be >= 0, got {b}")
    violating_pair = check_consistency(system, b)
    blocking_set = check_resilience(system, b)
    return MaskingReport(
        b=b,
        consistent=violating_pair is None,
        resilient=blocking_set is None,
        violating_pair=violating_pair,
        blocking_set=blocking_set,
    )


def verify_masking(system: QuorumSystem, b: int) -> None:
    """Raise :class:`~repro.exceptions.MaskingViolationError` unless ``system`` is ``b``-masking."""
    report = masking_report(system, b)
    if report.is_masking:
        return
    if not report.consistent:
        first, second = report.violating_pair
        raise MaskingViolationError(
            f"{system.name} is not {b}-masking: quorums intersect in "
            f"{len(first & second)} < {intersection_count(b)} servers"
        )
    raise MaskingViolationError(
        f"{system.name} is not {b}-masking: the {len(report.blocking_set)} servers "
        f"{sorted(report.blocking_set, key=repr)[:6]} hit every quorum"
    )
