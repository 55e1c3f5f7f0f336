"""Lower bounds on the load and availability of b-masking quorum systems.

This module implements the bounds of Section 4.1 of the paper:

* Theorem 4.1 — ``L(Q) >= max{(2b+1)/c(Q), c(Q)/n}`` for any ``b``-masking
  quorum system ``Q``.
* Corollary 4.2 — ``L(Q) >= sqrt((2b+1)/n)``, with equality when
  ``c(Q) = sqrt((2b+1) n)``.
* Proposition 4.3 — ``Fp(Q) >= p^(MT(Q)) = p^(f+1)``.
* Proposition 4.4 — ``Fp(Q) >= p^(c(Q) - 2b)``.
* Proposition 4.5 — ``Fp(Q) >= p^(b+1)`` when ``MT(Q) <= (IS(Q)+1)/2``.

In addition it exposes the *resilience/load trade-off* noted in Section 8:
``f <= n·L(Q)``, which follows from ``f <= c(Q)`` and Theorem 4.1.

All functions take plain numeric parameters so that they can be evaluated for
systems that are too large to enumerate; convenience wrappers taking a
:class:`~repro.core.quorum_system.QuorumSystem` are also provided.

See ``docs/notation.md`` for the notation glossary.
"""

from __future__ import annotations

import math

from repro.core.availability import validate_probability
from repro.core.floats import is_zero
from repro.core.masking import intersection_count
from repro.core.quorum_system import QuorumSystem
from repro.exceptions import ComputationError, InvalidParameterError

__all__ = [
    "load_lower_bound",
    "load_lower_bound_for_system",
    "optimal_quorum_size",
    "crash_probability_lower_bound",
    "crash_probability_lower_bound_for_system",
    "resilience_upper_bound_from_load",
    "load_optimality_ratio",
]


def load_lower_bound(n: int, b: int, quorum_size: int | None = None) -> float:
    """Return the Theorem 4.1 / Corollary 4.2 lower bound on the load.

    Parameters
    ----------
    n:
        Number of servers.
    b:
        Masking parameter of the system.
    quorum_size:
        ``c(Q)`` when known.  With it, the bound is Theorem 4.1's
        ``max{(2b+1)/c, c/n}``; without it, the universal Corollary 4.2
        bound ``sqrt((2b+1)/n)`` is returned.
    """
    if n <= 0:
        raise ComputationError(f"universe size must be positive, got {n}")
    if b < 0:
        raise ComputationError(f"masking parameter must be >= 0, got {b}")
    if quorum_size is None:
        return math.sqrt(intersection_count(b) / n)
    if quorum_size <= 0 or quorum_size > n:
        raise ComputationError(f"quorum size {quorum_size} is not in [1, {n}]")
    return max(intersection_count(b) / quorum_size, quorum_size / n)


def load_lower_bound_for_system(system: QuorumSystem, b: int | None = None) -> float:
    """Return Theorem 4.1's bound evaluated on ``system``.

    When ``b`` is omitted the system's own masking bound (Corollary 3.7) is
    used.
    """
    if b is None:
        b = system.masking_bound()
    return load_lower_bound(system.n, b, system.min_quorum_size())


def optimal_quorum_size(n: int, b: int) -> float:
    """Return the quorum size ``sqrt((2b+1) n)`` at which Corollary 4.2 is tight."""
    if n <= 0 or b < 0:
        raise ComputationError(f"invalid parameters n={n}, b={b}")
    return math.sqrt(intersection_count(b) * n)


def crash_probability_lower_bound(
    p: float,
    *,
    min_transversal: int | None = None,
    quorum_size: int | None = None,
    b: int | None = None,
    balanced: bool = False,
) -> float:
    """Return the strongest applicable lower bound on ``Fp``.

    The three bounds of Propositions 4.3–4.5 are evaluated with whatever
    parameters are supplied and the largest (i.e. strongest) is returned:

    * ``p^MT``            — needs ``min_transversal`` (Proposition 4.3);
    * ``p^(c - 2b)``      — needs ``quorum_size`` and ``b`` (Proposition 4.4);
    * ``p^(b+1)``         — needs ``b`` and ``balanced=True``, meaning the
      system satisfies ``MT <= (IS+1)/2`` (Proposition 4.5).
    """
    validate_probability(p)
    candidates: list[float] = []
    if min_transversal is not None:
        if min_transversal <= 0:
            raise ComputationError(f"MT must be positive, got {min_transversal}")
        candidates.append(p ** min_transversal)
    if quorum_size is not None and b is not None:
        exponent = quorum_size - 2 * b
        if exponent <= 0:
            raise ComputationError(
                f"quorum size {quorum_size} must exceed 2b = {2 * b} for a b-masking system"
            )
        candidates.append(p ** exponent)
    if balanced and b is not None:
        candidates.append(p ** (b + 1))
    if not candidates:
        raise ComputationError("no parameters supplied; cannot evaluate any bound")
    return max(candidates)


def crash_probability_lower_bound_for_system(
    system: QuorumSystem, p: float, b: int | None = None
) -> float:
    """Evaluate Propositions 4.3–4.5 on an enumerable ``system``."""
    if b is None:
        b = system.masking_bound()
    min_transversal = system.min_transversal_size()
    intersection = system.min_intersection_size()
    return crash_probability_lower_bound(
        p,
        min_transversal=min_transversal,
        quorum_size=system.min_quorum_size(),
        b=b,
        balanced=min_transversal <= (intersection + 1) / 2,
    )


def resilience_upper_bound_from_load(n: int, load: float) -> float:
    """Return the Section 8 trade-off bound ``f <= n L(Q)``.

    Low load forces low resilience and vice versa; this is the impossibility
    the probabilistic quorum systems of [MRWW98] were later designed to
    evade.
    """
    if n <= 0:
        raise ComputationError(f"universe size must be positive, got {n}")
    if not 0.0 <= load <= 1.0:
        raise InvalidParameterError(f"load must lie in [0, 1], got {load}")
    return n * load


def load_optimality_ratio(n: int, b: int, achieved_load: float) -> float:
    """Return ``achieved_load / sqrt((2b+1)/n)``.

    A ratio of 1 means the system meets the Corollary 4.2 lower bound exactly;
    the paper calls a construction *load optimal* when this ratio is bounded
    by a constant as ``n`` grows.
    """
    bound = load_lower_bound(n, b)
    if is_zero(bound):
        raise ComputationError("degenerate lower bound of zero")
    return achieved_load / bound
