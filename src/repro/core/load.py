"""Load of a quorum system (Definition 3.8, Proposition 3.9).

The *load* ``L(Q)`` is the access probability of the busiest server under the
best possible access strategy.  It is a best-case, failure-free measure of
how well the system spreads work.

This module holds the *primitive* paths — it computes, it never chooses:

* :func:`exact_load` — the optimum of the defining linear program, returned
  with a certificate.  Feasible whenever the quorum list can be enumerated (a
  few tens of thousands of quorums).
* :func:`fair_load` — Proposition 3.9: a fair quorum system has
  ``L(Q) = c(Q) / n``, achieved by the uniform strategy it returns.

The closed forms live in :func:`repro.core.analytic.analytic_load`; the one
policy that orders closed form, LP and sampled estimate (and labels the
result) is :func:`repro.api.measures.measure`.

The linear program is the standard one: variables are the strategy weights
``w_Q`` plus the load bound ``L``; minimise ``L`` subject to
``sum_{Q ∋ u} w_Q <= L`` for every server ``u`` and ``sum_Q w_Q = 1``.  Its
dual maximises ``min_Q y(Q)`` over distributions ``y`` on the servers, so by
weak duality ``min_Q y(Q) <= L(Q) <= max_u l_w(u)`` for *any* strategy ``w``
and element weights ``y``.  A pair that meets is a certificate of the exact
value, and :func:`exact_load` never answers without one:

* the uniform strategy and the uniform weights ``y = 1/n`` bound ``L(Q)``
  between ``c/n`` (``c`` the smallest quorum) and ``d/m`` (``d`` the largest
  element degree, ``m`` the number of quorums).  Counting memberships twice
  gives ``m c <= sum_Q |Q| = sum_u deg(u) <= n d``, with equality exactly for
  fair families, so the integer test ``d n == c m`` closes every fair family
  at ``c/n`` (Proposition 3.9) without a solver;
* any other family is solved by HiGHS, and its answer is accepted only when
  the duals of the element rows, normalised, bound the optimum from below to
  within ``1e-9`` of the load the primal strategy induces.

Both read the family's incidence matrix off the bitmask engine
(:mod:`repro.core.bitset`), built once per system and cached.

See ``docs/notation.md`` for the full paper-notation glossary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.strategy import Strategy
from repro.exceptions import ComputationError

__all__ = ["LoadResult", "exact_load", "fair_load", "load_of_strategy"]

#: Largest accepted gap between a certificate's primal and dual loads.
CERTIFICATE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LoadResult:
    """The outcome of a load computation.

    Attributes
    ----------
    load:
        The value of ``L(Q)`` (or an upper bound, depending on the method).
    strategy:
        A strategy achieving ``load``, when the method produces one.
    method:
        Which procedure produced the value (``"lp"``, ``"fair"``,
        ``"analytic"`` or ``"strategy"``).
    element_weights:
        The dual half of the certificate: a distribution ``y`` over the
        universe positions with ``min_Q y(Q)`` equal to ``load`` (to
        :data:`CERTIFICATE_TOLERANCE`).  ``None`` for closed forms, which
        carry no certificate.
    """

    load: float
    strategy: Strategy | None
    method: str
    element_weights: tuple[float, ...] | None = None


def load_of_strategy(system: QuorumSystem, strategy: Strategy) -> float:
    """Return the load induced on ``system`` by ``strategy`` (Definition 3.8)."""
    return strategy.induced_system_load(system.universe)


def _uniform_certificate(system: QuorumSystem) -> LoadResult | None:
    """Proposition 3.9 by weak duality: close a fair family at ``c/n``.

    The uniform strategy induces ``max_degree / m`` and the uniform element
    weights bound ``L(Q)`` below by ``min_size / n``; the two meet, compared
    in integers, exactly when the family is fair.  Returns ``None`` otherwise.
    The test reads the enumerated family's own engine, never a
    construction's ``fairness()`` closed form.
    """
    engine = system.bitset_engine()
    min_size = int(engine.quorum_sizes().min())
    max_degree = int(engine.degrees().max())
    n = engine.n
    if max_degree * n != min_size * engine.num_quorums:
        return None
    return LoadResult(
        load=min_size / n,
        strategy=Strategy.uniform_over_system(system),
        method="fair",
        element_weights=(1.0 / n,) * n,
    )


def fair_load(system: QuorumSystem) -> LoadResult:
    """Return ``c(Q)/n`` for a fair system (Proposition 3.9).

    The value carries the uniform strategy and the uniform element weights
    as its certificate; fairness is checked on the enumerated family.

    Raises
    ------
    ComputationError
        If the system is not fair, in which case the formula does not apply.
    """
    if getattr(system, "is_implicit", False):
        system = system.base
    result = _uniform_certificate(system)
    if result is None:
        raise ComputationError(
            f"{system.name} is not a fair quorum system; Proposition 3.9 does not apply"
        )
    return result


def _solve_lp(system: QuorumSystem) -> LoadResult:
    """Solve the load LP with HiGHS and check the optimum against its dual."""
    from scipy import optimize

    incidence = system.bitset_engine().incidence_matrix().astype(float)  # shape (m, n)
    num_quorums, num_elements = incidence.shape

    # Variables: [w_1, ..., w_m, L].  Minimise L.
    objective = np.zeros(num_quorums + 1)
    objective[-1] = 1.0

    # For every element u: sum_{Q ∋ u} w_Q - L <= 0.
    upper_matrix = np.hstack([incidence.T, -np.ones((num_elements, 1))])
    upper_bounds = np.zeros(num_elements)

    # sum_Q w_Q = 1.
    equality_matrix = np.zeros((1, num_quorums + 1))
    equality_matrix[0, :num_quorums] = 1.0
    equality_rhs = np.array([1.0])

    bounds = [(0.0, None)] * num_quorums + [(0.0, 1.0)]

    result = optimize.linprog(
        objective,
        A_ub=upper_matrix,
        b_ub=upper_bounds,
        A_eq=equality_matrix,
        b_eq=equality_rhs,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise ComputationError(f"load LP failed for {system.name}: {result.message}")

    weights = np.clip(result.x[:num_quorums], 0.0, None)
    load_value = float(result.x[-1])
    # The element rows' duals are <= 0 sensitivities of a minimisation;
    # negated and normalised they are element weights y, and min_Q y(Q) is a
    # lower bound on L(Q) whatever HiGHS claims.
    duals = np.clip(-np.asarray(result.ineqlin.marginals, dtype=float), 0.0, None)
    if not duals.sum() > 0.0:
        raise ComputationError(f"load LP for {system.name} returned no certificate")
    element_weights = duals / duals.sum()
    lower = float((incidence @ element_weights).min())
    upper = float(((weights / weights.sum()) @ incidence).max())
    gap = max(upper, load_value) - min(lower, load_value)
    if gap > CERTIFICATE_TOLERANCE:
        raise ComputationError(
            f"load LP for {system.name} is not certified: the strategy induces "
            f"{upper!r}, the dual bounds L(Q) >= {lower!r}, HiGHS reports "
            f"{load_value!r} (gap {gap:.1e})"
        )
    return LoadResult(
        load=load_value,
        strategy=Strategy.from_vector(system, weights, normalise=True),
        method="lp",
        element_weights=tuple(element_weights.tolist()),
    )


def exact_load(system: QuorumSystem, *, quorum_limit: int | None = 50_000) -> LoadResult:
    """Return the exact load of ``system``, certified by LP duality.

    Parameters
    ----------
    system:
        The quorum system; its quorums must be enumerable.
    quorum_limit:
        Guard on the number of quorums the LP is allowed to contain
        (``None`` lifts the budget and defers to the system's own
        enumeration guards).

    Returns
    -------
    LoadResult
        The optimal load, an optimal strategy realising it and the element
        weights proving it optimal.  ``method`` names the certificate:
        ``"fair"`` for the uniform pair of Proposition 3.9 (no solver runs),
        ``"lp"`` for a HiGHS optimum checked against its dual.

    Raises
    ------
    ComputationError
        If the family exceeds the budget, the LP fails, or the HiGHS answer
        does not meet its dual bound.

    Notes
    -----
    Quorum systems are immutable and the computation is deterministic, so the
    result is memoised on the system object (like the quorum list itself):
    repeated load queries against the same system pay once.  That memoised
    ``LoadResult`` is finished work and is returned as is; short of it, the
    enumeration budget ``quorum_limit`` is enforced on every call, whoever
    enumerated the system first.
    """
    cached = getattr(system, "_exact_load_cache", None)
    if cached is not None:
        return cached
    if getattr(system, "is_implicit", False):
        # An implicit system's quorums() is a *sampled sub-family*: solving
        # the LP over it would silently report the sample's load as L(Q).
        # If the base family fits the budget, solve the real LP on the base;
        # otherwise refuse loudly (this used to be an OOM/hang).
        base = system.base
        try:
            base_count = base.num_quorums()
        except ComputationError:
            base_count = None
        # quorum_limit=None means "no budget": delegate and let the base's
        # own enumeration guards speak.
        if quorum_limit is not None and (base_count is None or base_count > quorum_limit):
            described = "unknown" if base_count is None else f"{base_count}"
            raise ComputationError(
                f"{system.name} is an implicit system whose base family "
                f"({described} quorums) exceeds the exact-LP enumeration "
                f"budget of {quorum_limit}; use "
                "repro.core.analytic.analytic_load for the closed form or "
                "system.support_strategy() for the sampled strategy"
            )
        return exact_load(base, quorum_limit=quorum_limit)
    # Enumerate under the caller's limit so the engine build, the certificate
    # and the strategy construction all honour it.
    system.quorum_masks(limit=quorum_limit)
    load_result = _uniform_certificate(system) or _solve_lp(system)
    system._exact_load_cache = load_result
    return load_result
