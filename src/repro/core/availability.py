"""Availability of quorum systems: the crash probability ``Fp`` (Definition 3.10).

Assume each server crashes independently with probability ``p``.  A quorum is
*hit* when it contains at least one crashed server; the system fails when
every quorum is hit.  ``Fp(Q)`` is the probability of that event.  A family of
systems is *Condorcet* when ``Fp -> 0`` as ``n -> infinity`` for every
``p < 1/2``.

This module holds the *primitive* paths — it computes, it never chooses:

* :func:`exact_failure_probability` — sums over all ``2^n`` crash
  configurations.  Exponential, but exact; intended for ``n`` up to ~20.
* :func:`inclusion_exclusion_failure_probability` — inclusion–exclusion over
  the quorums (the minimal path sets of reliability theory).  Exponential in
  the *number of quorums*; intended for systems with up to ~22 quorums.
* :func:`monte_carlo_failure_probability` — vectorised Monte-Carlo estimate
  with a normal-approximation confidence interval.

The closed forms live in :mod:`repro.core.analytic`; the one policy that
orders closed form, enumeration and sampling (and labels the result) is
:func:`repro.api.measures.measure`.  :func:`validate_probability` is the
library's single ``p in [0, 1]`` check.

The exact enumeration and the Monte-Carlo sampler both run on the bitmask
engine (:mod:`repro.core.bitset`): the former asks it for the superset-closure
survival table over all ``2^n`` alive-sets, the latter for the cached
incidence matrix.  See ``docs/notation.md`` for the notation glossary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.rng import ensure_rng
from repro.exceptions import ComputationError, InvalidParameterError

__all__ = [
    "AvailabilityResult",
    "exact_failure_probability",
    "inclusion_exclusion_failure_probability",
    "monte_carlo_failure_probability",
    "is_condorcet_sequence",
    "validate_probability",
]

#: Most entries one Monte-Carlo batch may span: its ``(batch, n)`` float64
#: draw (32 MB) and the ``batch × num_quorums`` survival bits, which the
#: bit-sliced check keeps as ``(num_quorums, ceil(batch/64))`` uint64 words.
#: The size fixes how the draw stream splits into batches, not the estimate.
_BATCH_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class AvailabilityResult:
    """Outcome of a crash-probability estimation.

    Attributes
    ----------
    value:
        The estimate of ``Fp(Q)``.
    method:
        ``"exact"``, ``"inclusion-exclusion"``, ``"monte-carlo"`` or
        ``"analytic"``.
    std_error:
        Standard error of the estimate (zero for exact methods).
    trials:
        Number of Monte-Carlo trials (zero for exact methods).
    """

    value: float
    method: str
    std_error: float = 0.0
    trials: int = 0

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Return a two-sided normal-approximation confidence interval."""
        low = max(0.0, self.value - z * self.std_error)
        high = min(1.0, self.value + z * self.std_error)
        return low, high


def validate_probability(p: float) -> float:
    """Return ``p`` as a float, rejecting anything outside ``[0, 1]``."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"crash probability must lie in [0, 1], got {p}")
    return float(p)


def _reject_implicit(system: QuorumSystem, estimator: str) -> None:
    """Refuse to estimate Fp over an implicit system's sampled sub-family.

    An :class:`~repro.core.quorum_system.ImplicitQuorumSystem` exposes only a
    frozen *sample* of its quorums, so any estimator that walks the family
    would silently report the sample's failure probability (typically far
    above the real one — fewer quorums means fewer ways to survive).
    """
    if getattr(system, "is_implicit", False):
        raise ComputationError(
            f"{system.name} is an implicit system; {estimator} over its sampled "
            "sub-family would overestimate Fp.  Use "
            "repro.core.analytic.analytic_failure_probability (closed forms) "
            "or the base construction directly"
        )


def exact_failure_probability(
    system: QuorumSystem, p: float, *, max_universe: int = 22
) -> AvailabilityResult:
    """Return ``Fp(Q)`` exactly by enumerating crash configurations.

    The system survives a crash configuration exactly when some quorum
    contains no crashed server, so

    ``Fp(Q) = sum over crashed sets D of p^|D| (1-p)^(n-|D|) [every quorum meets D]``.

    The sum is organised over *alive* sets represented as bitmasks so the
    inner test is a subset check on integers.
    """
    _reject_implicit(system, "exact enumeration")
    p = validate_probability(p)
    n = system.n
    if n > max_universe:
        raise ComputationError(
            f"exact enumeration over 2^{n} crash configurations refused "
            f"(limit n <= {max_universe}); use Monte-Carlo instead"
        )
    engine = system.bitset_engine()
    # The weight of an alive-set depends only on its cardinality; tabulating
    # the n + 1 possible weights and accumulating them sequentially in
    # alive-mask order reproduces the naive sum bit for bit.
    weights = [(1.0 - p) ** alive_count * p ** (n - alive_count) for alive_count in range(n + 1)]
    survive_probability = 0.0
    if n <= 26:
        # Survival of every alive-set at once: the superset-closure dynamic
        # program replaces the per-mask "some quorum is a subset" scan.
        survives = engine.subset_survival_table()
        alive_counts = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
        for alive_count in alive_counts[survives].tolist():
            survive_probability += weights[alive_count]
    else:
        # A caller who raised max_universe beyond the table's memory comfort
        # zone gets the direct per-mask scan (same sum, same order).
        quorum_masks = engine.masks
        for alive_mask in range(1 << n):
            if any(mask & alive_mask == mask for mask in quorum_masks):
                survive_probability += weights[alive_mask.bit_count()]
    return AvailabilityResult(value=1.0 - survive_probability, method="exact")


def inclusion_exclusion_failure_probability(
    system: QuorumSystem, p: float, *, max_quorums: int = 22
) -> AvailabilityResult:
    """Return ``Fp(Q)`` exactly via inclusion–exclusion over quorums.

    ``P(some quorum alive) = sum_{∅ != S ⊆ Q} (-1)^(|S|+1) (1-p)^(|union of S|)``.

    Exact but exponential in the number of quorums; useful when the system
    has few quorums over a large universe (e.g. a finite projective plane).
    """
    _reject_implicit(system, "inclusion-exclusion")
    p = validate_probability(p)
    quorum_masks = system.quorum_masks()
    if len(quorum_masks) > max_quorums:
        raise ComputationError(
            f"inclusion-exclusion over 2^{len(quorum_masks)} quorum subsets refused "
            f"(limit {max_quorums} quorums); use Monte-Carlo instead"
        )
    survive_probability = 0.0
    for subset_size in range(1, len(quorum_masks) + 1):
        sign = 1.0 if subset_size % 2 == 1 else -1.0
        for subset in itertools.combinations(quorum_masks, subset_size):
            union = 0
            for mask in subset:
                union |= mask
            union_size = union.bit_count()
            survive_probability += sign * (1.0 - p) ** union_size
    return AvailabilityResult(value=1.0 - survive_probability, method="inclusion-exclusion")


def monte_carlo_failure_probability(
    system: QuorumSystem,
    p: float,
    *,
    trials: int = 20_000,
    rng: np.random.Generator | None = None,
) -> AvailabilityResult:
    """Estimate ``Fp(Q)`` by sampling crash configurations.

    Each trial crashes every server independently with probability ``p`` and
    checks whether any quorum is left untouched.  The check is bit-sliced
    over the trials (:meth:`~repro.core.bitset.BitsetEngine.alive_quorum_exists`:
    integer word ORs, one bit per trial), in batches sized to
    ``_BATCH_ELEMENTS``; the draw fills row-major, so the estimate does not
    depend on how the trials are split.
    """
    _reject_implicit(system, "Monte-Carlo estimation")
    p = validate_probability(p)
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials}")
    rng = ensure_rng(rng)
    engine = system.bitset_engine()

    batch_size = max(1, _BATCH_ELEMENTS // max(engine.num_quorums, system.n))
    failures = 0
    remaining = trials
    while remaining > 0:
        batch = min(batch_size, remaining)
        crashed = rng.random((batch, system.n)) < p  # (batch, n)
        # A quorum is alive when none of its members crashed.
        some_quorum_alive = engine.alive_quorum_exists(crashed)
        failures += int((~some_quorum_alive).sum())
        remaining -= batch

    estimate = failures / trials
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / trials)
    return AvailabilityResult(
        value=estimate, method="monte-carlo", std_error=std_error, trials=trials
    )


def is_condorcet_sequence(
    failure_probabilities: list[float], *, tolerance: float = 0.0
) -> bool:
    """Return ``True`` when a sequence of ``Fp`` values trends to zero.

    The paper calls a family of systems *Condorcet* when ``Fp -> 0`` as the
    universe grows, for every ``p < 1/2``.  This numeric proxy checks that
    the sequence is (weakly) decreasing overall and that its last value is at
    most half its first value (or already below ``tolerance``).
    """
    if len(failure_probabilities) < 2:
        raise ComputationError("need at least two points to judge a trend")
    first, last = failure_probabilities[0], failure_probabilities[-1]
    if last <= tolerance:
        return True
    return last <= first / 2.0
