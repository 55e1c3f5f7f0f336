"""Measure dispatcher: one ``measure()`` over the three computation paths.

There are three ways to compute each of the paper's measures — the closed
forms (:mod:`repro.core.analytic`), the exact enumeration/LP engine
(:mod:`repro.core.load`, :mod:`repro.core.availability`) and the
sampled/Monte-Carlo estimators.  Those modules compute; this one is the
only place in the repo that *chooses* between them and labels the result.
Wrapper views (implicit, rebound) are peeled first
(:func:`repro.core.quorum_system.unwrap`): measures are label- and
sample-independent.

``method="auto"`` resolution order (per measure):

1. **analytic** — the construction's closed form, exact at any ``n``
   (cross-validated to ``1e-9`` against the exact engine, see
   ``tests/test_analytic.py``);
2. **exact** — enumeration/LP, when the system fits the
   :class:`Budget` (``max_universe`` crash configurations for ``Fp``,
   ``max_quorums`` for the load LP);
3. **sampled** — Monte-Carlo ``Fp`` / the sampled-support load estimate,
   with the error bound recorded on the result.

Forcing ``method="exact"``/``"analytic"``/``"sampled"`` skips the policy
and raises a clear :class:`~repro.exceptions.ComputationError` when that
path cannot run.  Every result is a :class:`MeasureResult` that records
*which* path actually ran and its error bound, so downstream tables can
label values honestly.

>>> from repro.api import measure
>>> measure("mgrid", "load", side=7, b=3).value  # doctest: +ELLIPSIS
0.4897...
>>> measure("mgrid", "fp", side=4, b=1, p=0.1, method="auto").method_used
'analytic'
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import SystemSpec, build, spec_of
from repro.core import analytic as analytic_mod
from repro.core import availability as availability_mod
from repro.core import load as load_mod
from repro.core.quorum_system import ImplicitQuorumSystem, QuorumSystem, unwrap
from repro.exceptions import ComputationError, InvalidParameterError

__all__ = ["Budget", "MeasureResult", "available_measures", "measure"]

#: Measures the dispatcher understands, with a one-line meaning each.
MEASURES: dict[str, str] = {
    "load": "L(Q): access probability of the busiest server under the best strategy",
    "fp": "Fp(Q): probability every quorum is hit under iid crashes (needs p)",
    "availability": "1 - Fp(Q) (needs p)",
    "masking": "b: largest number of Byzantine failures the system masks",
    "resilience": "f = MT(Q) - 1: crash failures always survived",
    "min-quorum": "c(Q): size of the smallest quorum",
    "intersection": "IS(Q): smallest pairwise quorum intersection",
    "transversal": "MT(Q): size of the smallest transversal",
}

#: Methods a caller may request.
METHODS = ("auto", "exact", "analytic", "sampled")


def available_measures() -> dict[str, str]:
    """Return the supported measure names with their one-line meanings."""
    return dict(MEASURES)


@dataclass(frozen=True)
class Budget:
    """Resource limits the ``auto`` policy respects.

    The fields that are also ``measure`` / ``compare`` flags carry their
    help text as ``metadata["help"]``; the CLI derives those flags from them.

    Attributes
    ----------
    max_universe:
        Largest ``n`` for which exact ``Fp`` enumeration over ``2^n`` crash
        configurations is allowed.
    max_quorums:
        Largest quorum family the load LP / combinatorial enumeration may
        materialise.
    """

    max_universe: int = 22
    max_quorums: int = 50_000
    trials: int = field(
        default=20_000, metadata={"help": "Monte-Carlo trial count for sampled Fp"}
    )
    num_samples: int = field(
        default=256,
        metadata={"help": "sample size when a sampled load estimate must stand in for the LP"},
    )
    seed: int = field(
        default=0, metadata={"help": "seed for every sampled path, so results are reproducible"}
    )

    def __post_init__(self):
        for name in ("max_universe", "max_quorums", "trials", "num_samples"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(
                    f"budget {name} must be >= 1, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class MeasureResult:
    """The outcome of one measure computation, with provenance.

    Attributes
    ----------
    measure / value:
        What was computed and its value.
    method_requested / method_used:
        The caller's ``method`` argument, and the path that actually ran —
        one of ``"analytic"``, ``"analytic-straight-lines"``,
        ``"analytic-bound"``, ``"lp"``, ``"enumeration"``,
        ``"inclusion-exclusion"``, ``"monte-carlo"``, ``"sampled-lp"``,
        ``"combinatorial"``.
    error_bound:
        A bound on ``|value - true value|``: ``0.0`` for exact paths, the
        95% confidence half-width for Monte-Carlo, ``inf`` when only an
        upper/lower bound is known (see ``details["kind"]``).
    system / n:
        The system's display name and universe size.
    p:
        The crash probability the measure was evaluated at (``None`` for
        crash-free measures).
    details:
        Method-specific extras (trials, std_error, sample size, ...).
    """

    measure: str
    value: float
    method_requested: str
    method_used: str
    error_bound: float
    system: str
    n: int
    p: float | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Return a strictly JSON-serialisable dict (RFC 8259).

        An infinite ``error_bound`` (the value is only a bound, see
        ``details["kind"]``) is emitted as ``null`` — Python's ``Infinity``
        token is rejected by non-Python JSON parsers.
        """
        payload = {
            "measure": self.measure,
            "value": self.value,
            "method_requested": self.method_requested,
            "method_used": self.method_used,
            "error_bound": (
                self.error_bound if math.isfinite(self.error_bound) else None
            ),
            "system": self.system,
            "n": self.n,
        }
        if self.p is not None:
            payload["p"] = self.p
        if self.details:
            payload["details"] = dict(self.details)
        return payload


def _resolve_system(
    system_or_spec: QuorumSystem | SystemSpec | str, params: dict
) -> QuorumSystem:
    if isinstance(system_or_spec, QuorumSystem):
        if params:
            raise InvalidParameterError(
                "construction parameters only apply when passing a name or "
                "spec, not an already-built system"
            )
        return system_or_spec
    if isinstance(system_or_spec, (str, SystemSpec)):
        if isinstance(system_or_spec, SystemSpec) and params:
            raise InvalidParameterError(
                "pass parameters inside the SystemSpec or as keywords, not both"
            )
        return build(system_or_spec, **params) if params else build(system_or_spec)
    raise InvalidParameterError(
        "measure() takes a QuorumSystem, a construction name or a SystemSpec, "
        f"got {type(system_or_spec).__name__}"
    )


def _enumerable_within(base: QuorumSystem, budget: Budget) -> bool:
    """Whether the (unwrapped) family fits the exact engines' quorum budget."""
    if not base.enumerates_all_quorums:
        return False
    try:
        return base.num_quorums() <= budget.max_quorums
    except ComputationError:
        return False


#: (value, method_used, error_bound, details) — the shape every path returns.
_Outcome = tuple[float, str, float, dict[str, object]]


# ----------------------------------------------------------------------
# Per-measure paths.  Each returns (value, method_used, error_bound, details)
# or raises ComputationError when the path cannot run.
# ----------------------------------------------------------------------
def _load_exact(system: QuorumSystem, budget: Budget) -> _Outcome:
    base = unwrap(system)
    if not _enumerable_within(base, budget):
        raise ComputationError(
            f"{base.name}: the load LP needs an enumerable family within "
            f"{budget.max_quorums} quorums"
        )
    result = load_mod.exact_load(base, quorum_limit=budget.max_quorums)
    return float(result.load), "lp", 0.0, {"lp_method": result.method}


def _load_analytic(system: QuorumSystem, budget: Budget) -> _Outcome:
    result = analytic_mod.analytic_load(system)
    return float(result.load), result.method, 0.0, {}


def _load_sampled(system: QuorumSystem, budget: Budget) -> _Outcome:
    if isinstance(system, ImplicitQuorumSystem):
        implicit = system
    else:
        implicit = ImplicitQuorumSystem(
            system, num_samples=budget.num_samples, seed=budget.seed
        )
    strategy = implicit.sampled_optimal_strategy()
    value = strategy.induced_system_load(implicit.universe)
    return (
        float(value),
        "sampled-lp",
        float("inf"),
        {"num_samples": implicit.num_samples, "kind": "upper-bound"},
    )


def _fp_exact(system: QuorumSystem, p: float, budget: Budget) -> _Outcome:
    # Refuses (ComputationError) beyond 2^max_universe crash configurations.
    result = availability_mod.exact_failure_probability(
        unwrap(system), p, max_universe=budget.max_universe
    )
    return float(result.value), "enumeration", 0.0, {}


#: Closed forms that are only a bound, by :class:`AvailabilityResult` method.
_BOUND_KINDS = {
    "analytic-straight-lines": "upper-bound (exact for the straight-line family)",
    "analytic-bound": "upper-bound",
}


def _fp_analytic(system: QuorumSystem, p: float, budget: Budget) -> _Outcome:
    result = analytic_mod.analytic_failure_probability(system, p)
    kind = _BOUND_KINDS.get(result.method)
    if kind is None:  # "analytic" / "enumeration" / "inclusion-exclusion": exact
        return float(result.value), result.method, 0.0, {}
    return float(result.value), result.method, float("inf"), {"kind": kind}


def _fp_sampled(system: QuorumSystem, p: float, budget: Budget) -> _Outcome:
    base = unwrap(system)
    rng = np.random.default_rng(budget.seed)
    estimator = getattr(base, "crash_probability", None)
    # The construction's own Monte-Carlo sampler scales to any n (it samples
    # crash patterns, not quorums).  A closed-form crash_probability(p)
    # without a trials knob is not a sampler; nor is a missing method
    # (signature(None) raises TypeError).
    try:
        takes_trials = "trials" in inspect.signature(estimator).parameters
    except (TypeError, ValueError):
        takes_trials = False
    if takes_trials:
        value = float(estimator(p, trials=budget.trials, rng=rng))
        half_width = 1.96 * float(
            np.sqrt(max(value * (1.0 - value), 0.0) / budget.trials)
        )
        std_error = half_width / 1.96
    elif _enumerable_within(base, budget):
        result = availability_mod.monte_carlo_failure_probability(
            base, p, trials=budget.trials, rng=rng
        )
        value, std_error = float(result.value), result.std_error
        half_width = float(1.96 * std_error)
    else:
        raise ComputationError(
            f"{base.name} has no crash-pattern sampler and its family is not "
            "enumerable; no sampled Fp path applies"
        )
    details = {"trials": budget.trials, "std_error": std_error}
    return value, "monte-carlo", half_width, details


#: The combinatorial invariants and the QuorumSystem method answering each.
_COMBINATORIAL = {
    "masking": "masking_bound",
    "resilience": "resilience",
    "min-quorum": "min_quorum_size",
    "intersection": "min_intersection_size",
    "transversal": "min_transversal_size",
}


def _combinatorial(system: QuorumSystem, measure_name: str, budget: Budget) -> _Outcome:
    """c / IS / MT / f / b — closed form when the construction has one,
    else enumeration within the budget."""
    value = getattr(unwrap(system), _COMBINATORIAL[measure_name])()
    return float(value), "combinatorial", 0.0, {}


def measure(
    system_or_spec: QuorumSystem | SystemSpec | str,
    measure_name: str = "load",
    *,
    method: str = "auto",
    p: float | None = None,
    budget: Budget | None = None,
    **params: object,
) -> MeasureResult:
    """Compute one of the paper's measures through the dispatch policy.

    Parameters
    ----------
    system_or_spec:
        A built :class:`~repro.core.quorum_system.QuorumSystem`, a registry
        name (with construction parameters as extra keywords) or a
        :class:`~repro.api.registry.SystemSpec`.
    measure_name:
        One of :func:`available_measures` (default ``"load"``).
    method:
        ``"auto"`` applies the documented policy; ``"exact"``,
        ``"analytic"`` and ``"sampled"`` force that path or raise.
    p:
        Per-server crash probability — required by ``"fp"`` and
        ``"availability"``, rejected by the crash-free measures.
    budget:
        Resource limits (:class:`Budget`); defaults are the library-wide
        guard rails.

    Returns
    -------
    MeasureResult
        The value plus provenance: which path ran and its error bound.
    """
    if measure_name not in MEASURES:
        raise InvalidParameterError(
            f"unknown measure {measure_name!r}; available: "
            f"{', '.join(sorted(MEASURES))}"
        )
    if method not in METHODS:
        raise InvalidParameterError(
            f"unknown method {method!r}; choose one of {', '.join(METHODS)}"
        )
    budget = budget if budget is not None else Budget()
    system = _resolve_system(system_or_spec, params)

    needs_p = measure_name in ("fp", "availability")
    if needs_p:
        if p is None:
            raise InvalidParameterError(
                f"measure {measure_name!r} needs the crash probability p"
            )
        availability_mod.validate_probability(p)
    elif p is not None:
        raise InvalidParameterError(
            f"measure {measure_name!r} does not take a crash probability"
        )

    if measure_name in _COMBINATORIAL:
        if method == "sampled":
            raise ComputationError(
                f"measure {measure_name!r} has no sampled estimator; "
                "it is a combinatorial invariant"
            )
        value, used, error_bound, details = _combinatorial(system, measure_name, budget)
    elif measure_name == "load":
        paths = {"exact": _load_exact, "analytic": _load_analytic, "sampled": _load_sampled}
        value, used, error_bound, details = _dispatch(paths, method, system, budget)
    else:  # fp / availability
        paths = {
            "exact": lambda s, bud: _fp_exact(s, p, bud),
            "analytic": lambda s, bud: _fp_analytic(s, p, bud),
            "sampled": lambda s, bud: _fp_sampled(s, p, bud),
        }
        value, used, error_bound, details = _dispatch(paths, method, system, budget)
        if measure_name == "availability":
            value = 1.0 - value

    try:
        details = {**details, "spec": spec_of(system).to_dict()}
    except InvalidParameterError:
        pass  # ad-hoc explicit/composed systems have no canonical spec
    return MeasureResult(
        measure=measure_name,
        value=value,
        method_requested=method,
        method_used=used,
        error_bound=error_bound,
        system=system.name,
        n=system.n,
        p=p if needs_p else None,
        details=details,
    )


def _dispatch(paths: dict, method: str, system: QuorumSystem, budget: Budget) -> _Outcome:
    """Run the requested path, or the ``auto`` order analytic → exact → sampled."""
    if method != "auto":
        return paths[method](system, budget)
    failures = []
    for name in ("analytic", "exact", "sampled"):
        try:
            return paths[name](system, budget)
        except ComputationError as exc:
            failures.append(f"{name}: {exc}")
    raise ComputationError(
        "no computation path applies under the current budget — "
        + "; ".join(failures)
    )
