"""Load of a quorum system (Definition 3.8, Proposition 3.9).

The *load* ``L(Q)`` is the access probability of the busiest server under the
best possible access strategy.  It is a best-case, failure-free measure of
how well the system spreads work.

This module holds the *primitive* paths — it computes, it never chooses:

* :func:`exact_load` — solve the defining linear program exactly with
  :func:`scipy.optimize.linprog`.  Feasible whenever the quorum list can be
  enumerated (a few tens of thousands of quorums).
* :func:`fair_load` — Proposition 3.9: a fair quorum system has
  ``L(Q) = c(Q) / n``, achieved by the uniform strategy it returns.

The closed forms live in :func:`repro.core.analytic.analytic_load`; the one
policy that orders closed form, LP and sampled estimate (and labels the
result) is :func:`repro.api.measures.measure`.

The linear program is the standard one: variables are the strategy weights
``w_Q`` plus the load bound ``L``; minimise ``L`` subject to
``sum_{Q ∋ u} w_Q <= L`` for every server ``u`` and ``sum_Q w_Q = 1``.  The
LP's incidence matrix comes from the bitmask engine
(:mod:`repro.core.bitset`), built once per system and cached.

See ``docs/notation.md`` for the full paper-notation glossary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.core.quorum_system import QuorumSystem
from repro.core.strategy import Strategy
from repro.exceptions import ComputationError

__all__ = ["LoadResult", "exact_load", "fair_load", "load_of_strategy"]


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
    """

    load: float
    strategy: Strategy | None
    method: str


def load_of_strategy(system: QuorumSystem, strategy: Strategy) -> float:
    """Return the load induced on ``system`` by ``strategy`` (Definition 3.8)."""
    return strategy.induced_system_load(system.universe)


def fair_load(system: QuorumSystem) -> LoadResult:
    """Return ``c(Q)/n`` for a fair system (Proposition 3.9).

    Raises
    ------
    ComputationError
        If the system is not fair, in which case the formula does not apply.
    """
    fairness = system.fairness()
    if fairness is None:
        raise ComputationError(
            f"{system.name} is not a fair quorum system; Proposition 3.9 does not apply"
        )
    quorum_size, _ = fairness
    strategy = Strategy.uniform_over_system(system)
    return LoadResult(load=quorum_size / system.n, strategy=strategy, method="fair")


def exact_load(system: QuorumSystem, *, quorum_limit: int | None = 50_000) -> LoadResult:
    """Return the exact load of ``system`` by solving the defining LP.

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
        The optimal load and an optimal strategy realising it.

    Notes
    -----
    Quorum systems are immutable and the LP is deterministic, so the result
    is memoised on the system object (like the quorum list itself): repeated
    load queries against the same system pay for one solve.  That memoised
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
    # Enumerate under the caller's limit so both the engine build and the
    # strategy construction honour it, then reuse the engine's incidence
    # matrix (built once per system).
    system.quorum_masks(limit=quorum_limit)
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
    strategy = Strategy.from_vector(system, weights, normalise=True)
    load_value = float(result.x[-1])
    load_result = LoadResult(load=load_value, strategy=strategy, method="lp")
    system._exact_load_cache = load_result
    return load_result
