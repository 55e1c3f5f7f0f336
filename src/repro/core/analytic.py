"""Closed-form load and availability: the implicit large-universe engine.

The enumeration-based engines (:func:`repro.core.load.exact_load`,
:func:`repro.core.availability.exact_failure_probability`) top out around
``n ≈ 30`` servers / tens of thousands of quorums, which is enough to *verify*
the paper's formulas but not its *asymptotics* — the load ``Ω(1/sqrt(n))``
lower bound (Corollary 4.2) and the load/availability trade-off across
Threshold, Grid, M-Grid and M-Path (Sections 4–8) are statements about
``n -> infinity``.  This module is the repo's only *closed-form* layer: the
one place that knows which construction has which form and whether it is
exact, a bound, or exact for a sub-family.  It dispatches on construction
structure (wrapper views are peeled first,
:func:`repro.core.quorum_system.unwrap`), so no quorum family is ever
materialised:

===================  =====================================================
Construction         Closed form used
===================  =====================================================
Threshold            ``L = k/n``; ``Fp`` = binomial tail (exact)
Grid (both)          ``L = c/n``; ``Fp`` via the fully-alive row/column
                     joint distribution (exact dynamic program, see
                     :func:`rowcol_survival_probability`)
M-Grid               same row/column dynamic program with ``k`` rows and
                     ``k`` columns required (exact)
M-Path               Proposition 7.2 strategy load; ``Fp`` of the
                     straight-line family by the same dynamic program over
                     the triangular lattice's rows/columns (exact for that
                     family, an upper bound for full M-Path whose bent
                     paths only add quorums; the percolation machinery of
                     :mod:`repro.percolation` provides the full-family
                     Monte-Carlo and the Proposition 7.3 bound)
RT(k, l)             ``L = (l/k)^h``; ``Fp`` by the exact recurrence
                     ``F(h) = g(F(h-1))`` (Proposition 5.6)
Crumbling wall       ``Fp`` by per-row products (rows are independent)
Composition S ∘ R    ``Fp(S∘R) = Fp_S(Fp_R(p))`` — exact modular
                     decomposition (inner copies fail independently), which
                     makes boostFPP exact whenever the outer plane is small
                     enough to enumerate
generic              exact enumeration / inclusion–exclusion fallbacks when
                     feasible, else a clear :class:`ComputationError`
===================  =====================================================

Whether to *use* a closed form, the enumeration engine or a sampler is not
decided here but by :func:`repro.api.measures.measure`.  Every closed form
is cross-validated against the LP/enumeration engine to ``1e-9`` on the
small-``n`` test matrix (``tests/test_analytic.py``); the
large-``n`` sweeps live in :mod:`repro.analysis.asymptotics` and
``tests/test_implicit.py``.  ``docs/analysis.md`` maps each
theorem to its implementing function.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.availability import (
    AvailabilityResult,
    exact_failure_probability,
    inclusion_exclusion_failure_probability,
    validate_probability,
)
from repro.core.load import LoadResult
from repro.core.quorum_system import QuorumSystem, unwrap
from repro.core.rng import ensure_rng
from repro.exceptions import ComputationError

if TYPE_CHECKING:
    from repro.core.composition import ComposedQuorumSystem

__all__ = [
    "analytic_load",
    "analytic_failure_probability",
    "crumbling_wall_failure_probability",
    "rowcol_survival_estimate",
    "rowcol_survival_probability",
]

#: Size limits of the generic exact fallbacks for structureless systems:
#: ``2^n`` crash configurations / ``2^m`` quorum subsets.
MAX_UNIVERSE = 22
MAX_QUORUMS = 22


# ----------------------------------------------------------------------
# Load.
# ----------------------------------------------------------------------
def analytic_load(system: QuorumSystem) -> LoadResult:
    """Return ``L(Q)`` from the construction's closed form (no enumeration).

    Dispatch order:

    1. the construction's own ``load()`` closed form (all the paper's
       constructions provide one — Propositions 3.9, 5.2, 5.5, 6.2, 7.2 and
       Theorem 4.7 for compositions), reported with method ``"analytic"``;
    2. the fair-system formula ``L = c/n`` of Proposition 3.9 (this path may
       enumerate to *check* fairness, so it only triggers for explicit
       systems), reported with method ``"fair"``.

    This never falls back to the LP, so it is safe at any universe size;
    wrapper views (implicit, rebound) are resolved to their base
    construction first.

    Raises
    ------
    ComputationError
        When the system has neither a closed form nor checkable fairness.
    """
    base = unwrap(system)
    load_fn = getattr(base, "load", None)
    if callable(load_fn):
        return LoadResult(load=float(load_fn()), strategy=None, method="analytic")
    fairness = base.fairness()
    if fairness is not None:
        quorum_size, _ = fairness
        return LoadResult(load=quorum_size / base.n, strategy=None, method="fair")
    raise ComputationError(
        f"{base.name} has no closed-form load and is not fair; "
        "use repro.core.load.exact_load (enumeration permitting)"
    )


# ----------------------------------------------------------------------
# Availability: the row/column dynamic program shared by the grid family.
# ----------------------------------------------------------------------
def rowcol_survival_probability(
    side: int, p: float, min_rows: int, min_cols: int
) -> float:
    """Exact ``P(>= min_rows fully-alive rows AND >= min_cols fully-alive columns)``.

    Servers sit on a ``side x side`` grid and crash independently with
    probability ``p`` (Definition 3.10's model).  The joint distribution of
    (number of fully-alive rows, number of fully-alive columns) has no
    product form — the events share cells — but it admits an exact dynamic
    program over rows: process one row at a time and track

    * ``r`` — how many of the processed rows were fully alive, and
    * ``m`` — how many columns are still fully alive *within the processed
      rows* (column exchangeability makes the count a sufficient statistic).

    A row is fully alive with probability ``(1-p)^side`` (keeping ``m``
    intact); otherwise exactly ``j`` of the ``m`` tracked column-cells
    survive with the binomial weight ``C(m, j) (1-p)^j p^(m-j)`` minus the
    fully-alive corner.  All transition weights are non-negative, so unlike
    the textbook bivariate inclusion–exclusion the computation is
    numerically stable at any ``side`` (no alternating ``C(100, 50)``-sized
    terms), costing ``O(side^3)`` flops via one matrix product per row.

    This single routine gives the exact crash probability of the whole grid
    family — each grid class states its ``(min_rows, min_cols)`` once, as
    ``alive_lines`` — and of M-Path's straight-line family (``k`` and ``k``
    over the triangular lattice, Section 7).
    """
    from scipy import stats

    if side < 1:
        raise ComputationError(f"grid side must be >= 1, got {side}")
    validate_probability(p)
    if min_rows > side or min_cols > side:
        return 0.0
    alive = 1.0 - p
    row_alive = alive**side

    # T[m, j]: P(exactly j of m tracked column-cells alive AND the row is
    # not fully alive).  Subtracting the fully-alive corner at j = m keeps
    # the two transition branches disjoint.
    transition = np.zeros((side + 1, side + 1))
    for m in range(side + 1):
        transition[m, : m + 1] = stats.binom.pmf(np.arange(m + 1), m, alive)
        transition[m, m] -= row_alive
    # dp[r, m] after t rows: P(r alive rows so far, m columns still intact).
    dp = np.zeros((side + 1, side + 1))
    dp[0, side] = 1.0
    for _ in range(side):
        advanced = dp @ transition
        advanced[1:, :] += dp[:-1, :] * row_alive
        dp = advanced
    # The sum can overshoot [0, 1] by a few ulps at extreme p; clamp so the
    # derived Fp is a genuine probability.
    return float(min(1.0, max(0.0, dp[min_rows:, min_cols:].sum())))


def rowcol_survival_estimate(
    side: int,
    p: float,
    min_rows: int,
    min_cols: int,
    *,
    trials: int,
    rng: np.random.Generator | None,
) -> float:
    """Monte-Carlo estimate of what :func:`rowcol_survival_probability` computes.

    The crash-pattern sampler of the grid family: one draw of ``trials``
    independent ``side x side`` crash patterns, counting those with at least
    ``min_rows`` fully-alive rows and ``min_cols`` fully-alive columns.
    """
    validate_probability(p)
    crashed = ensure_rng(rng).random((trials, side, side)) < p
    alive_rows = (~crashed).all(axis=2).sum(axis=1)
    alive_columns = (~crashed).all(axis=1).sum(axis=1)
    return float(((alive_rows >= min_rows) & (alive_columns >= min_cols)).mean())


def crumbling_wall_failure_probability(row_widths: Sequence[int], p: float) -> float:
    """Exact ``Fp`` of a crumbling wall by per-row products.

    A wall quorum is one full row plus a representative from every row below
    it, so the system survives exactly when some row ``i`` is fully alive
    and every row below ``i`` has at least one alive element.  Rows occupy
    disjoint cells, hence are independent; classifying each row as *fully
    alive* (probability ``a_i = (1-p)^{w_i}``), *partially alive*
    (``s_i - a_i`` with ``s_i = 1 - p^{w_i}``) or *dead*, the survival
    probability telescopes into

    ``P(survive) = sum_i a_i * prod_{j > i} (s_j - a_j)``

    — the ``i``-th term is the event "row ``i`` is the *lowest* fully-alive
    row whose suffix is all non-dead", and the terms are disjoint because
    any lower fully-alive row with a non-dead suffix would be counted at its
    own index instead.
    """
    validate_probability(p)
    widths = [int(width) for width in row_widths]
    if not widths or any(width <= 0 for width in widths):
        raise ComputationError(f"row widths must be positive, got {row_widths}")
    alive = 1.0 - p
    fully = [alive**width for width in widths]
    some = [1.0 - p**width for width in widths]
    survive = 0.0
    suffix = 1.0  # prod over rows below the current one of (s_j - a_j)
    for index in range(len(widths) - 1, -1, -1):
        survive += fully[index] * suffix
        suffix *= some[index] - fully[index]
    return float(min(1.0, max(0.0, 1.0 - survive)))


def analytic_failure_probability(system: QuorumSystem, p: float) -> AvailabilityResult:
    """Return ``Fp(Q)`` in closed form, dispatching on construction structure.

    The result's ``method`` field records what the value is:

    * ``"analytic"`` — exact (binomial tails, the row/column dynamic
      program, the RT recurrence, per-row wall products, or an exact
      modular composition);
    * ``"analytic-straight-lines"`` — exact for M-Path's straight-line
      quorum family (the family its Proposition 7.2 strategy draws from and
      the simulator uses); an upper bound on full M-Path, whose bent-path
      quorums only improve survival;
    * ``"analytic-bound"`` — a deterministic upper bound (boostFPP with an
      outer plane too large to enumerate, via Proposition 6.3's line-death
      estimate);
    * ``"enumeration"`` / ``"inclusion-exclusion"`` — generic exact
      fallbacks for small systems without special structure.

    Wrapper views (implicit, rebound) are resolved to their base
    construction, so availability at ``n = 10^4`` costs the same as at
    ``n = 16``.  Cross-validated to ``1e-9`` against the enumeration engine
    in ``tests/test_analytic.py``.

    Raises
    ------
    ComputationError
        When no closed form applies and the exact fallbacks are infeasible.
    """
    validate_probability(p)
    # Local imports: repro.constructions imports repro.core, so dispatching
    # on the concrete construction classes must not run at module-import
    # time.
    from repro.constructions.crumbling_wall import CrumblingWall
    from repro.constructions.grid import MaskingGrid, RegularGrid
    from repro.constructions.mgrid import MGrid
    from repro.constructions.mpath import MPath
    from repro.constructions.recursive_threshold import RecursiveThreshold
    from repro.constructions.threshold import ThresholdQuorumSystem
    from repro.core.composition import ComposedQuorumSystem

    system = unwrap(system)
    if isinstance(system, (ThresholdQuorumSystem, RecursiveThreshold)):
        return AvailabilityResult(value=system.crash_probability(p), method="analytic")
    if isinstance(system, (RegularGrid, MaskingGrid, MGrid)):
        survive = rowcol_survival_probability(system.side, p, *system.alive_lines)
        return AvailabilityResult(value=1.0 - survive, method="analytic")
    if isinstance(system, MPath):
        survive = rowcol_survival_probability(system.side, p, system.k, system.k)
        return AvailabilityResult(value=1.0 - survive, method="analytic-straight-lines")
    if isinstance(system, CrumblingWall):
        value = crumbling_wall_failure_probability(system.row_widths, p)
        return AvailabilityResult(value=value, method="analytic")
    if isinstance(system, ComposedQuorumSystem):
        return _composed_failure_probability(system, p)

    # Generic exact fallbacks for structureless systems.
    if system.n <= MAX_UNIVERSE:
        result = exact_failure_probability(system, p, max_universe=MAX_UNIVERSE)
        return AvailabilityResult(value=result.value, method="enumeration")
    try:
        quorum_count = system.num_quorums()
    except ComputationError:
        quorum_count = None
    if quorum_count is not None and quorum_count <= MAX_QUORUMS:
        result = inclusion_exclusion_failure_probability(
            system, p, max_quorums=MAX_QUORUMS
        )
        return AvailabilityResult(value=result.value, method="inclusion-exclusion")
    raise ComputationError(
        f"{system.name} has no analytic crash probability and is too large "
        f"for the exact fallbacks (n={system.n}); use "
        "repro.core.availability.monte_carlo_failure_probability"
    )


def _composed_failure_probability(
    system: "ComposedQuorumSystem", p: float
) -> AvailabilityResult:
    """Exact modular decomposition ``Fp(S∘R) = Fp_S(Fp_R(p))`` (Theorem 4.7 setting).

    The inner copies occupy disjoint sub-universes and fail independently,
    each with probability ``r = Fp_R(p)``; the composition survives exactly
    when the outer system survives with per-element crash probability ``r``.
    The decomposition is therefore *exact* whenever both recursive values
    are; a bounded inner/outer value degrades the method tag accordingly.
    For boostFPP with an outer plane too big to enumerate, fall back to the
    construction's deterministic Proposition 6.3 estimate.
    """
    inner = analytic_failure_probability(system.inner, p)
    try:
        outer = analytic_failure_probability(system.outer, inner.value)
    except ComputationError:
        from repro.constructions.boost_fpp import BoostedFPP

        if isinstance(system, BoostedFPP):
            # Proposition 6.3's line-death estimate: a deterministic upper
            # bound that needs no enumeration of the outer plane.
            return AvailabilityResult(
                value=float(system.crash_probability(p)), method="analytic-bound"
            )
        raise
    exact_methods = {"analytic", "enumeration", "inclusion-exclusion"}
    if inner.method in exact_methods and outer.method in exact_methods:
        method = "analytic"
    else:
        method = "analytic-bound"
    return AvailabilityResult(value=outer.value, method=method)
