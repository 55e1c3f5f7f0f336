"""Automated construction selection (the Section 8 design exercise as a function).

Section 8 of the paper walks through picking a quorum system by hand given a
universe size, a load budget and the component crash probability, noting that
"determining the best quorum construction depends on the goals and
constraints of any particular setting, as no system is advantageous in all
measures".  :func:`recommend_construction` automates exactly that exercise:
it instantiates every construction of the paper at the requested scale,
discards the ones that cannot meet the masking and load requirements, and
ranks the survivors by crash probability (the measure left over once the hard
requirements are met).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.comparison import SystemProfile, profile_system
from repro.analysis.tables import PAPER_FAMILIES
from repro.api.registry import build, shape_at
from repro.constructions.threshold import boosting_block
from repro.core.rng import ensure_rng
from repro.exceptions import ConstructionError, FieldError
from repro.gf.prime_field import factor_prime_power

__all__ = ["Recommendation", "candidate_constructions", "recommend_construction"]


@dataclass(frozen=True)
class Recommendation:
    """The outcome of a construction-selection run.

    Attributes
    ----------
    best:
        The profile of the recommended construction (``None`` when no
        construction meets the requirements).
    feasible:
        Profiles of every construction meeting the requirements, best first.
    rejected:
        Profiles of the constructions that exist at this scale but fail the
        masking or load requirement, for transparency.
    """

    best: SystemProfile | None
    feasible: list[SystemProfile]
    rejected: list[SystemProfile]


def _largest_prime_power_at_most(value: int) -> int:
    for candidate in range(value, 1, -1):
        try:
            factor_prime_power(candidate)
            return candidate
        except FieldError:
            continue
    raise ConstructionError(f"no prime power at most {value}")


def candidate_constructions(n: int, required_b: int) -> list:
    """Instantiate every construction of the paper near size ``n`` masking ``required_b``.

    Constructions whose shape constraints cannot accommodate ``required_b``
    at (roughly) this universe size are silently skipped — that in itself is
    part of the answer the paper's Section 8 gives (e.g. M-Grid simply cannot
    mask ``n/4`` failures).

    The regular systems (tree, wheel — ``IS = 1``, so ``b = 0``) enter the
    comparison only when no masking is required: a ``required_b >= 1``
    instantly disqualifies them, so listing them would only add noise to the
    rejection report.  They are always available through the facade registry
    (``repro.api.build("tree", ...)``) and as boosting inputs.
    """
    candidates = []

    def offer(make, *args, **params) -> None:
        try:
            candidates.append(make(*args, **params))
        except ConstructionError:
            pass

    offer(PAPER_FAMILIES["Threshold"].at, n, required_b)

    if required_b == 0:
        offer(build, "wheel", **shape_at("wheel", {}, n))
        # Depth capped at 3 (255 quorums): the depth-4 family has 2^16 - 1
        # quorums, which pushes the profile's exact MT/Fp computations from
        # milliseconds to minutes for no extra insight in a selection table.
        tree_depth = min(3, shape_at("tree", {}, n)["depth"])
        if tree_depth >= 1:
            candidates.append(build("tree", depth=tree_depth))

    for name in ("Grid", "M-Grid", "M-Path"):
        offer(PAPER_FAMILIES[name].at, n, required_b)

    rt = PAPER_FAMILIES["RT(4,3)"].at(n)
    if rt.masking_bound() >= required_b:
        candidates.append(rt)

    # boostFPP: pick the plane order so that (4b+1)(q^2+q+1) lands near n —
    # the largest prime power whose plane fits n // (4b+1) points.
    q_limit = shape_at("fpp", {}, max(3, n // boosting_block(required_b).n))["q"]
    if q_limit >= 2:
        offer(build, "boostfpp", q=_largest_prime_power_at_most(q_limit), b=required_b)

    return candidates


def recommend_construction(
    n: int,
    p: float,
    *,
    required_b: int,
    max_load: float | None = None,
    rng: np.random.Generator | None = None,
) -> Recommendation:
    """Pick the best construction for the given deployment constraints.

    Parameters
    ----------
    n:
        Approximate number of servers available; every family uses the
        member of its natural shape nearest ``n`` (the family table in
        ``docs/analysis.md``).
    p:
        Independent per-server crash probability.
    required_b:
        The number of Byzantine failures that must be masked.
    max_load:
        Optional load budget; constructions whose load exceeds it are
        rejected (this is how the paper's example rules out Threshold).
    rng:
        Randomness for the Monte-Carlo availability estimates of the systems
        that need one.

    Returns
    -------
    Recommendation
        Feasible constructions ranked by crash probability (then by load).
    """
    if required_b < 0:
        raise ConstructionError(f"required_b must be >= 0, got {required_b}")
    if n < 4:
        raise ConstructionError(f"need at least 4 servers, got {n}")
    rng = ensure_rng(rng)

    feasible: list[SystemProfile] = []
    rejected: list[SystemProfile] = []
    for system in candidate_constructions(n, required_b):
        profile = profile_system(system, p, b=required_b, rng=rng)
        meets_masking = system.masking_bound() >= required_b
        meets_load = max_load is None or profile.load <= max_load + 1e-12
        if meets_masking and meets_load:
            feasible.append(profile)
        else:
            rejected.append(profile)

    feasible.sort(key=lambda profile: (profile.crash_probability, profile.load))
    best = feasible[0] if feasible else None
    return Recommendation(best=best, feasible=feasible, rejected=rejected)
