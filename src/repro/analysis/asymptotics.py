"""Asymptotic sweeps: the paper's Section 4–5 comparison as data.

The paper's headline statements are asymptotic: every ``b``-masking quorum
system has load ``Omega(sqrt(b/n))`` (Theorem 4.1 / Corollary 4.2), the
threshold family pays constant load for exponentially-good availability,
and the grid families pay ``Theta(1/sqrt(n))`` load while their crash
probability climbs to one — the trade-off M-Path finally escapes.  With the
closed forms of :mod:`repro.core.analytic` these statements become
*measurable*: this module sweeps ``n`` across decades (no quorum family is
ever enumerated, so ``n = 10^4`` and beyond is cheap), fits the measured
loads against ``c * n^alpha`` and the availability against
``exp(-rate * n^gamma)``, and classifies each family's trend.

Entry points
------------
* :func:`family_system` — instantiate one of the paper's families
  (:data:`repro.analysis.tables.PAPER_FAMILIES`) at (or near) a target
  universe size.
* :func:`sweep` — per-size analytic load / ``Fp`` points for one family.
* :func:`fit_power_law` / :func:`fit_exponential_decay` — log-space least
  squares with an ``r^2`` quality figure.
* :func:`section45_comparison` — the full comparison table: every family's
  load exponent and availability trend side by side.

``tests/test_analysis.py`` drives these sweeps up to ``n = 10^4`` and
asserts the paper's exponents; ``docs/analysis.md`` walks through a
worked example.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import PAPER_FAMILIES
from repro.core.analytic import analytic_failure_probability, analytic_load
from repro.core.bounds import load_lower_bound
from repro.core.floats import is_zero
from repro.core.quorum_system import QuorumSystem
from repro.exceptions import ComputationError

__all__ = [
    "ASYMPTOTIC_FAMILIES",
    "AsymptoticPoint",
    "ExponentialDecayFit",
    "FamilyAsymptotics",
    "PowerLawFit",
    "family_system",
    "fit_exponential_decay",
    "fit_power_law",
    "section45_comparison",
    "sweep",
]

#: The families the Section 4–5 comparison sweeps, in the paper's order.
ASYMPTOTIC_FAMILIES = tuple(
    name for name, family in PAPER_FAMILIES.items() if family.swept
)


def family_system(name: str, n: int, b: int) -> QuorumSystem:
    """Instantiate family ``name`` at (or near) universe size ``n``.

    The shape at ``n`` is the family's natural one
    (:meth:`repro.analysis.tables.PaperFamily.at`; pass a size the family
    contains for an exact ``n``).  The returned system is a plain
    construction — wrap it in
    :class:`~repro.core.quorum_system.ImplicitQuorumSystem` to feed the
    workload engines at large ``n``.
    """
    family = PAPER_FAMILIES.get(name)
    if family is None:
        raise ComputationError(
            f"unknown paper family {name!r}; choose one of {tuple(PAPER_FAMILIES)}"
        )
    return family.at(n, b)


@dataclass(frozen=True)
class AsymptoticPoint:
    """One (family, size) evaluation, entirely from closed forms.

    Attributes
    ----------
    system:
        The instantiated system's name.
    n:
        Its actual universe size (may differ from the requested size for
        families with natural shapes).
    b:
        Masking parameter of the instance.
    load:
        Closed-form ``L(Q)`` (:func:`repro.core.analytic.analytic_load`).
    load_bound:
        The Corollary 4.2 lower bound ``sqrt((2b+1)/n)``.
    failure_probability:
        Closed-form ``Fp``
        (:func:`repro.core.analytic.analytic_failure_probability`).
    fp_method:
        The availability method tag (``"analytic"``,
        ``"analytic-straight-lines"``, ...).
    """

    system: str
    n: int
    b: int
    load: float
    load_bound: float
    failure_probability: float
    fp_method: str


def sweep(
    name: str, sizes: Iterable[int], *, b: int = 1, p: float = 0.1
) -> list[AsymptoticPoint]:
    """Evaluate one family across universe sizes, closed forms only.

    Parameters
    ----------
    name:
        One of :data:`ASYMPTOTIC_FAMILIES`.
    sizes:
        Target universe sizes (decades of perfect squares work for every
        family, e.g. ``[64, 256, 1024, 4096, 10000]``).
    b:
        Masking parameter, held fixed so the sweep isolates the effect of
        ``n`` (the paper's comparison does the same).
    p:
        Individual crash probability for the ``Fp`` column.
    """
    points: list[AsymptoticPoint] = []
    for target in sizes:
        system = family_system(name, int(target), b)
        load = analytic_load(system).load
        availability = analytic_failure_probability(system, p)
        points.append(
            AsymptoticPoint(
                system=system.name,
                n=system.n,
                b=b,
                load=load,
                load_bound=load_lower_bound(system.n, b),
                failure_probability=availability.value,
                fp_method=availability.method,
            )
        )
    return points


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``value ~ coefficient * n^exponent`` in log-log space.

    ``r_squared`` is the coefficient of determination of the log-log
    regression; 1.0 means the data is exactly a power law.
    """

    coefficient: float
    exponent: float
    r_squared: float

    def predict(self, n: float) -> float:
        """Evaluate the fitted power law at size ``n``."""
        return self.coefficient * float(n) ** self.exponent


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Plain least-squares ``y = slope * x + intercept`` with ``r^2``."""
    if len(x) < 2:
        raise ComputationError("need at least two points to fit a trend")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    residual = float(((y - predicted) ** 2).sum())
    total = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if is_zero(total) else 1.0 - residual / total
    return float(slope), float(intercept), r_squared


def fit_power_law(sizes: Iterable[float], values: Iterable[float]) -> PowerLawFit:
    """Fit ``values[i] ~ c * sizes[i]^alpha`` (e.g. measured load vs ``c/sqrt(n)``).

    All values must be positive — power laws live in log-log space.  An
    exponent near ``-0.5`` with ``r^2`` near one reproduces the paper's
    ``Theta(1/sqrt(n))`` load statements; near ``0`` it is the Threshold
    family's constant load.
    """
    sizes = np.asarray(list(sizes), dtype=float)
    values = np.asarray(list(values), dtype=float)
    if (sizes <= 0).any() or (values <= 0).any():
        raise ComputationError("power-law fits need positive sizes and values")
    slope, intercept, r_squared = _linear_fit(np.log(sizes), np.log(values))
    return PowerLawFit(
        coefficient=float(np.exp(intercept)), exponent=slope, r_squared=r_squared
    )


@dataclass(frozen=True)
class ExponentialDecayFit:
    """Least-squares fit of ``value ~ exp(log_prefactor - rate * n^size_exponent)``.

    A positive ``rate`` with good ``r_squared`` certifies exponential decay
    — the ``Fp = e^(-Omega(n))`` availability of the threshold/RT families.
    """

    rate: float
    log_prefactor: float
    size_exponent: float
    r_squared: float

    def predict(self, n: float) -> float:
        """Evaluate the fitted decay at size ``n``."""
        return float(np.exp(self.log_prefactor - self.rate * float(n) ** self.size_exponent))


def fit_exponential_decay(
    sizes: Iterable[float], values: Iterable[float], *, size_exponent: float = 1.0
) -> ExponentialDecayFit:
    """Fit ``log values[i] ~ log A - rate * sizes[i]^size_exponent``.

    ``size_exponent = 1`` tests plain ``e^(-Omega(n))`` decay (Threshold);
    RT-style families decay like ``e^(-Omega(n^gamma))`` with
    ``gamma = log_k(k - l + 1)`` (Proposition 5.7), so pass that ``gamma``.
    Zero values (underflow of an astronomically small ``Fp``) are rejected —
    trim the size range instead of feeding ``log 0``.
    """
    sizes = np.asarray(list(sizes), dtype=float)
    values = np.asarray(list(values), dtype=float)
    if (values <= 0).any():
        raise ComputationError(
            "exponential fits need positive values; drop sizes whose Fp underflowed"
        )
    x = sizes**size_exponent
    slope, intercept, r_squared = _linear_fit(x, np.log(values))
    return ExponentialDecayFit(
        rate=-slope,
        log_prefactor=intercept,
        size_exponent=size_exponent,
        r_squared=r_squared,
    )


@dataclass(frozen=True)
class FamilyAsymptotics:
    """One family's row in the Section 4–5 comparison.

    Attributes
    ----------
    name:
        Family name.
    points:
        The per-size evaluations.
    load_fit:
        Power-law fit of the load column (`exponent ≈ -0.5` for the
        load-optimal families, ``≈ 0`` for Threshold).
    availability_trend:
        ``"decaying"`` when ``Fp`` shrinks with ``n`` (Condorcet-like),
        ``"degrading"`` when it grows towards one, ``"flat"`` otherwise.
    """

    name: str
    points: tuple[AsymptoticPoint, ...]
    load_fit: PowerLawFit
    availability_trend: str


def _classify_trend(values, *, tolerance: float = 1e-12) -> str:
    first, last = values[0], values[-1]
    if last <= max(first / 2.0, tolerance):
        return "decaying"
    if last >= min(2.0 * first, 1.0 - tolerance) and last > first:
        return "degrading"
    return "flat"


def section45_comparison(
    sizes: Iterable[int] | None = None, *, p: float = 0.1, b: int = 1
) -> dict[str, FamilyAsymptotics]:
    """Reproduce the paper's Section 4–5 comparison as data.

    Returns, per family, the load power-law fit and the availability trend
    across ``sizes`` — numerically restating Table 2's asymptotic columns:
    Threshold trades constant load for decaying ``Fp``, Grid/M-Grid trade
    ``Theta(1/sqrt(n))`` load for ``Fp -> 1``, RT sits in between, and
    M-Path's straight-line family keeps the optimal load scaling (its full
    family additionally achieves optimal availability, Proposition 7.3 —
    see :mod:`repro.percolation` for that side).
    """
    if sizes is None:
        sizes = (64, 256, 1024, 4096)
    result: dict[str, FamilyAsymptotics] = {}
    for name in ASYMPTOTIC_FAMILIES:
        points = sweep(name, sizes, b=b, p=p)
        load_fit = fit_power_law([pt.n for pt in points], [pt.load for pt in points])
        trend = _classify_trend([pt.failure_probability for pt in points])
        result[name] = FamilyAsymptotics(
            name=name,
            points=tuple(points),
            load_fit=load_fit,
            availability_trend=trend,
        )
    return result
