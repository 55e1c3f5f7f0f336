"""Design-space comparison of masking quorum systems (Section 8).

Section 8 of the paper walks through a concrete setting — roughly one
thousand servers, a target load of about 1/4, individual crash probability
1/8 — and compares what each construction delivers in masking ability ``b``,
resilience ``f`` and crash probability ``Fp``.  This module reproduces that
comparison for arbitrary parameters and returns the values in a structured
form that the Section 8 benchmark and the examples print.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import PAPER_FAMILIES, quoted_crash_probability
from repro.api.measures import measure
from repro.api.registry import shape_at
from repro.constructions.boost_fpp import BoostedFPP
from repro.constructions.mgrid import MGrid
from repro.constructions.mpath import MPath
from repro.core.quorum_system import QuorumSystem
from repro.exceptions import ComputationError, ConstructionError

__all__ = ["SystemProfile", "profile_system", "section8_comparison"]


@dataclass(frozen=True)
class SystemProfile:
    """The headline figures of one construction in a concrete setting.

    Attributes
    ----------
    name:
        Construction name.
    n:
        Number of servers actually used (each family's natural size nearest
        the request; the family table in ``docs/analysis.md``).
    b:
        Byzantine failures masked.
    f:
        Resilience (crash failures always survived), ``MT - 1``.
    load:
        The construction's (analytic) load.
    crash_probability:
        The value of ``Fp`` at the requested ``p`` — an exact value, an
        analytic bound or a Monte-Carlo estimate depending on the system.
    crash_probability_kind:
        ``"exact"``, ``"upper-bound"``, ``"lower-bound"`` or ``"monte-carlo"``.
    """

    name: str
    n: int
    b: int
    f: int
    load: float
    crash_probability: float
    crash_probability_kind: str


def profile_system(
    system: QuorumSystem,
    p: float,
    *,
    b: int | None = None,
    rng: np.random.Generator | None = None,
) -> SystemProfile:
    """Return the :class:`SystemProfile` of an already-built construction.

    Load and crash probability come from the facade's measure dispatcher
    (:func:`repro.api.measures.measure` with ``method="auto"``): the
    construction's closed form when it has one, the exact engine otherwise
    — which is what lets systems without a closed-form load (tree, wheel)
    appear in selection tables with a real value instead of ``NaN`` — and
    ``crash_probability_kind`` is read off the result's provenance.  Three
    constructions keep the bound the paper's Section 8 reports for them
    instead (M-Grid's lower bound, M-Path's and boostFPP's upper bounds);
    ``rng`` only drives M-Path's percolation sampler where its bound does
    not apply (``p >= 1/3``).
    """
    if b is None:
        b = system.masking_bound()
    resilience = system.min_transversal_size() - 1
    try:
        load = float(measure(system, "load").value)
    except ComputationError:
        load = float("nan")

    if isinstance(system, MGrid):
        crash_value = system.crash_probability_lower_bound(p)
        crash_kind = "lower-bound"
    elif isinstance(system, MPath):
        crash_value, crash_kind = quoted_crash_probability(system, p, rng)
    elif isinstance(system, BoostedFPP):
        crash_value = system.crash_probability_chernoff_bound(p)
        crash_kind = "upper-bound"
    else:
        fp = measure(system, "fp", p=p)
        crash_value = fp.value
        if fp.method_used == "monte-carlo":
            crash_kind = "monte-carlo"
        elif "kind" in fp.details:  # "upper-bound" / "upper-bound (exact for ...)"
            crash_kind = fp.details["kind"].split()[0]
        else:
            crash_kind = "exact"

    return SystemProfile(
        name=system.name,
        n=system.n,
        b=b,
        f=resilience,
        load=load,
        crash_probability=float(crash_value),
        crash_probability_kind=crash_kind,
    )


def section8_comparison(
    *,
    n: int = 1024,
    p: float = 0.125,
    rng: np.random.Generator | None = None,
    include_baselines: bool = False,
) -> list[SystemProfile]:
    """Reproduce the Section 8 worked example.

    With the defaults (``n = 1024`` servers, ``p = 1/8``) the paper reports:

    =============  =====  =====  ==============================
    system         b      f      Fp
    =============  =====  =====  ==============================
    M-Grid         15     28     >= 0.638
    boostFPP(q=3)  19     79     <= 0.372 (Chernoff form)
    M-Path         7      ~29    <= 0.001
    RT(4,3), h=5   15     31     <= 0.0001
    =============  =====  =====  ==============================

    Parameters are chosen so every construction's load is roughly 1/4.  The
    boostFPP instance uses ``n = 1001`` (the nearest size of its natural
    shape), exactly as in the paper.

    Parameters
    ----------
    n:
        Approximate number of servers (a perfect square and a power of 4 in
        the default setting).
    p:
        Individual crash probability.
    include_baselines:
        Also profile the [MR98a] Threshold and Grid baselines at the same
        scale, extending the comparison to all six systems of Table 2.

    Notes
    -----
    The classical regular systems (tree, wheel) are deliberately *not* part
    of this table: Section 8 compares ``b``-masking systems and a regular
    system has ``IS = 1``, hence ``b = 0`` — it cannot appear in a masking
    comparison at any scale.  They are registered in the facade
    (``repro.api.build("tree", depth=...)``, ``build("wheel", n=...)``) and
    join the selection exercise via
    :func:`repro.analysis.selector.candidate_constructions` when
    ``required_b == 0``.
    """

    def at(name: str, b: int | None = None) -> QuorumSystem:
        return PAPER_FAMILIES[name].at(n, b)

    side = shape_at("mgrid", {}, n)["side"]
    if side * side != n:
        raise ConstructionError(f"the Section 8 comparison needs a perfect-square n; got {n}")

    # M-Grid with the largest b giving load about 1/4: k rows/columns with
    # 2k/side ~ 1/4, i.e. k = side/8 and b = k^2 - 1; M-Path with 4 LR + 4 TB
    # paths (k = side/8 again), i.e. b = (k^2 - 1)/2.
    k = max(1, side // 8)
    mgrid_b = k * k - 1
    mpath_b = mgrid_b // 2
    # boostFPP with q = 3 has load ~ 3/(4q) = 1/4 at every b; RT(4, 3) has
    # the depth matching n = 4^h.
    boost, rt = at("boostFPP"), at("RT(4,3)")
    rt_b = rt.masking_bound()
    profiles = [
        profile_system(at("M-Grid", mgrid_b), p, b=mgrid_b, rng=rng),
        profile_system(boost, p, b=boost.b, rng=rng),
        profile_system(at("M-Path", mpath_b), p, b=mpath_b, rng=rng),
        profile_system(rt, p, b=rt_b, rng=rng),
    ]

    if include_baselines:
        # Threshold with b chosen for load ~ 1/4 is impossible (its load is
        # always >= 1/2); profile it at the same masking level as RT instead,
        # and Grid at M-Grid's b or the largest it can mask, if smaller.
        profiles.append(profile_system(at("Threshold", rt_b), p, b=rt_b, rng=rng))
        grid_b = min(mgrid_b, at("Grid").b)
        profiles.append(profile_system(at("Grid", grid_b), p, b=grid_b, rng=rng))

    return profiles
