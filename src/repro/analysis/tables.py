"""The paper's family table, and Table 2 regenerated from it.

:data:`PAPER_FAMILIES` is the one statement of the paper's six families —
paper name, registry construction, the parameters the paper's tables hold
fixed, Table 2's two optimality marks and which ``Fp`` the tables quote —
and :meth:`PaperFamily.at` the one way an analysis module instantiates a
family at (or near) a universe size; ``docs/analysis.md`` prints the table.
Table 2 states the largest maskable ``b``, the resilience ``f``, the load
``L`` and the behaviour of ``Fp`` as asymptotic formulas; :func:`table2`
evaluates the same quantities numerically at a concrete size and
:func:`availability_trend` across sizes, so that the benchmark can check
both the absolute values and the trends (who wins, where the crossovers
are).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from repro.api.measures import measure
from repro.api.registry import build, get_entry, shape_at, spec_of
from repro.constructions.boost_fpp import BoostedFPP
from repro.core.bounds import load_lower_bound
from repro.core.quorum_system import QuorumSystem
from repro.exceptions import ComputationError, ConstructionError

__all__ = [
    "PAPER_FAMILIES",
    "PaperFamily",
    "TABLE2_SYSTEMS",
    "Table2Row",
    "availability_trend",
    "quoted_crash_probability",
    "table2",
]


@dataclass(frozen=True)
class PaperFamily:
    """One row of the paper's family table.

    Attributes
    ----------
    name:
        The paper's name for the family (Table 2, Sections 4–8).
    construction:
        Its registry name; :func:`repro.api.registry.shape_at` owns the
        family's shape at a universe size.
    fixed:
        The parameters the paper's tables hold fixed.
    trend:
        What :func:`availability_trend` holds fixed while ``n`` grows: the
        smallest interesting ``b``, or the smallest plane for boostFPP
        (whose ``b`` grows with ``n``).
    load_optimal / availability_optimal:
        Table 2's two marks: load optimal for ``b``-masking systems, ``Fp``
        optimal for the resilience.
    quotes_bound:
        Whether the paper's tables quote an ``Fp`` bound for the family
        (:func:`quoted_crash_probability`) instead of the value
        :func:`repro.api.measures.measure` computes.
    swept:
        Whether Sections 4–5 sweep it across ``n`` at a fixed ``b``
        (:data:`repro.analysis.asymptotics.ASYMPTOTIC_FAMILIES`).
    """

    name: str
    construction: str
    fixed: dict = field(default_factory=dict)
    trend: dict = field(default_factory=dict)
    load_optimal: bool = False
    availability_optimal: bool = False
    quotes_bound: bool = False
    swept: bool = True

    def at(self, n: int, b: int | None = None, **fixed: int) -> QuorumSystem:
        """Build the family's member nearest universe size ``n`` masking ``b``.

        ``b=None`` asks for the largest ``b`` the constructor accepts at
        that shape (Table 2's ``b <`` column), found by scanning ``b``
        upward through the constructor's own validation.  ``b`` is ignored
        by the families that have no free ``b``: RT's follows from its
        depth, boostFPP's *is* its size parameter.
        """
        params = shape_at(self.construction, {**self.fixed, **fixed}, n)
        takes_b = any(spec.name == "b" for spec in get_entry(self.construction).params)
        if "b" in params or not takes_b:
            return build(self.construction, **params)
        if b is not None:
            return build(self.construction, **params, b=b)
        system = build(self.construction, **params, b=0)
        for larger in count(1):
            try:
                system = build(self.construction, **params, b=larger)
            except ConstructionError:
                return system


#: The paper's six families, in the order of Table 2.
PAPER_FAMILIES: dict[str, PaperFamily] = {
    family.name: family
    for family in (
        PaperFamily("Threshold", "threshold", trend={"b": 1}, availability_optimal=True),
        PaperFamily("Grid", "masking-grid", trend={"b": 1}),
        PaperFamily("M-Grid", "mgrid", trend={"b": 1}, load_optimal=True),
        PaperFamily("RT(4,3)", "rt", fixed={"k": 4, "l": 3}, availability_optimal=True),
        PaperFamily(
            "boostFPP", "boostfpp", fixed={"q": 3}, trend={"q": 2},
            load_optimal=True, quotes_bound=True, swept=False,
        ),
        PaperFamily(
            "M-Path", "mpath", trend={"b": 1},
            load_optimal=True, availability_optimal=True, quotes_bound=True,
        ),
    )
}

#: The six systems of Table 2, in the paper's order.
TABLE2_SYSTEMS = tuple(PAPER_FAMILIES)


def quoted_crash_probability(
    system: QuorumSystem,
    p: float,
    rng: np.random.Generator | None,
    *,
    bound: bool = True,
) -> tuple[float, str]:
    """Return ``(Fp, kind)`` as the paper quotes it for boostFPP and M-Path.

    boostFPP's tables carry the equation (6) estimate rather than the exact
    modular value.  M-Path's carry the Proposition 7.3 counting bound; it
    only exists for ``p < 1/3``, beyond which the seeded percolation sampler
    stands in (``kind == "monte-carlo"``).  ``bound=False`` samples at every
    ``p``: the counting bound is vacuous on small lattices, so a trend
    across sizes cannot use it.
    """
    if isinstance(system, BoostedFPP):
        return system.crash_probability(p), "upper-bound"
    if bound:
        try:
            return system.crash_probability_upper_bound(p), "upper-bound"
        except ComputationError:
            pass
    return system.crash_probability(p, trials=200, rng=rng), "monte-carlo"


def _crash_probability(
    family: PaperFamily,
    system: QuorumSystem,
    p: float,
    rng: np.random.Generator | None,
    *,
    bound: bool = True,
) -> float:
    if family.quotes_bound:
        return quoted_crash_probability(system, p, rng, bound=bound)[0]
    return measure(system, "fp", p=p).value


@dataclass(frozen=True)
class Table2Row:
    """One row of the reproduced Table 2.

    Attributes
    ----------
    system:
        Construction name (one of :data:`TABLE2_SYSTEMS`).
    n:
        Universe size actually used by the instance.
    max_b:
        The largest ``b`` the construction can mask at this size (the
        paper's ``b <`` column).
    resilience:
        ``f`` at that ``b`` (the paper's ``f`` column).
    load:
        The construction's load at that ``b`` (the paper's ``L`` column).
    load_lower_bound:
        ``sqrt((2b+1)/n)`` — the Corollary 4.2 bound the ``L`` column is
        judged against (the dagger footnote marks load-optimal systems).
    crash_probability:
        ``Fp`` at the given ``p`` (exact, bound or Monte-Carlo depending on
        the system; see the corresponding construction's documentation).
    load_optimal:
        Whether the paper marks this system's load optimal for ``b``-masking
        systems.
    availability_optimal:
        Whether the paper marks this system's ``Fp`` optimal for its
        resilience.
    """

    system: str
    n: int
    max_b: int
    resilience: int
    load: float
    load_lower_bound: float
    crash_probability: float
    load_optimal: bool
    availability_optimal: bool


def table2(
    n: int = 1024,
    p: float = 0.125,
    *,
    rng: np.random.Generator | None = None,
) -> list[Table2Row]:
    """Return the reproduced Table 2 at universe size ``n`` and crash probability ``p``.

    Each family of :data:`PAPER_FAMILIES` is instantiated at (or near) ``n``
    with the *largest* masking parameter it supports, matching the ``b <``
    column of the paper's table.  Load and ``Fp`` come from
    :func:`repro.api.measures.measure` — closed forms, so the table does not
    depend on ``rng`` — except for the two rows where the paper quotes a
    bound (:func:`quoted_crash_probability`).

    Parameters
    ----------
    n:
        Target universe size; must be a perfect square (the grid systems
        need one, and the others are sized as close to it as their shapes
        allow).
    p:
        Individual crash probability for the ``Fp`` column.
    rng:
        Randomness source for M-Path's percolation sampler, which only runs
        when ``p >= 1/3``; pass a seeded generator for reproducible tables.

    Returns
    -------
    list[Table2Row]
        One row per system, in the paper's order
        (:data:`TABLE2_SYSTEMS`).  ``tests/test_analysis_tables.py`` pins
        this output on a small matrix so refactors cannot silently change
        the reproduced table.

    Examples
    --------
    >>> rows = table2(64, 0.125)
    >>> [row.system for row in rows]
    ['Threshold', 'Grid', 'M-Grid', 'RT(4,3)', 'boostFPP', 'M-Path']
    >>> [row.max_b for row in rows]
    [15, 2, 3, 3, 1, 4]
    >>> [row.resilience for row in rows]
    [16, 3, 6, 7, 7, 5]
    >>> [f"{row.load:.4f}" for row in rows]
    ['0.7500', '0.6719', '0.4375', '0.4219', '0.2462', '0.6094']
    >>> [row.system for row in rows if row.load_optimal]
    ['M-Grid', 'boostFPP', 'M-Path']
    """
    rows: list[Table2Row] = []
    for family in PAPER_FAMILIES.values():
        system = family.at(n)
        params = spec_of(system).params
        if "side" in params and system.n != n:
            raise ConstructionError(
                f"Table 2 reproduction expects a perfect-square n; got {n}"
            )
        b = params["b"] if "b" in params else system.masking_bound()
        rows.append(
            Table2Row(
                system=family.name,
                n=system.n,
                max_b=b,
                resilience=system.min_transversal_size() - 1,
                load=measure(system, "load").value,
                load_lower_bound=load_lower_bound(system.n, b),
                crash_probability=_crash_probability(family, system, p, rng),
                load_optimal=family.load_optimal,
                availability_optimal=family.availability_optimal,
            )
        )
    return rows


def availability_trend(
    system_name: str,
    sizes: list[int],
    p: float,
    *,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Return ``Fp`` across universe sizes for one Table 2 system.

    Used to check the asymptotic column of Table 2: the Grid and M-Grid
    trends increase towards 1, the others decrease towards 0 for ``p`` below
    their thresholds.  Each family is held at its
    :attr:`PaperFamily.trend` setting so the trend isolates the effect of
    ``n``.  (For closed-form sweeps across decades of ``n`` — with
    power-law and exponential fits instead of raw trends — see
    :mod:`repro.analysis.asymptotics`.)

    Parameters
    ----------
    system_name:
        One of :data:`TABLE2_SYSTEMS`.
    sizes:
        Universe sizes; each family uses the member of its natural shape
        nearest each size.
    p:
        Individual crash probability.
    rng:
        Randomness source for M-Path, the one sampled trend; the others are
        closed forms and ignore it.

    Returns
    -------
    list[float]
        ``Fp`` per size, aligned with ``sizes``.

    Examples
    --------
    The Threshold family's availability improves with ``n`` (Condorcet):

    >>> trend = availability_trend("Threshold", [16, 64], 0.1)
    >>> [f"{value:.8f}" for value in trend]
    ['0.00050453', '0.00000000']

    RT(4, 3) decays as well (``p`` below its 0.2324 critical probability):

    >>> [f"{value:.8f}" for value in availability_trend("RT(4,3)", [16, 64], 0.1)]
    ['0.01528974', '0.00137423']
    """
    family = PAPER_FAMILIES.get(system_name)
    if family is None:
        raise ConstructionError(f"unknown Table 2 system {system_name!r}")
    return [
        _crash_probability(family, family.at(n, **family.trend), p, rng, bound=False)
        for n in sizes
    ]
