"""The resilience/load trade-off of Section 8.

The paper closes by observing that optimal resilience and optimal load are
incompatible: since every quorum is a transversal-blocker, ``f <= c(Q)``, and
Theorem 4.1 gives ``c(Q) <= n L(Q)``, hence ``f <= n L(Q)``.  Systems with
low load therefore necessarily have low resilience and vice versa — the
impossibility that motivated the probabilistic quorum systems of [MRWW98].

This module evaluates both sides of the inequality for any construction and
produces the data the trade-off benchmark plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import resilience_upper_bound_from_load
from repro.core.quorum_system import QuorumSystem

__all__ = ["TradeoffPoint", "tradeoff_point", "verify_tradeoff"]


@dataclass(frozen=True)
class TradeoffPoint:
    """One construction's position in the (load, resilience) plane.

    Attributes
    ----------
    name:
        Construction name.
    n:
        Universe size.
    load:
        The construction's load.
    resilience:
        Its resilience ``f``.
    resilience_bound:
        The Section 8 bound ``n * load``; ``resilience`` must not exceed it.
    slack:
        ``resilience_bound - resilience`` (non-negative when the bound holds).
    """

    name: str
    n: int
    load: float
    resilience: int
    resilience_bound: float
    slack: float


def tradeoff_point(system: QuorumSystem) -> TradeoffPoint:
    """Return the trade-off data point for ``system``.

    The load comes from :func:`repro.api.measures.measure` (closed form
    when the construction has one, else the LP), the resilience from
    ``MT(Q) - 1``, and the bound is Section 8's ``f <= n L(Q)``.

    Examples
    --------
    The Figure 1 instance M-Grid(7, 3) is fair with quorums of 24 of the 49
    servers, so its load is ``24/49``; its resilience ``f = 5`` sits well
    under the ``n L = 24`` ceiling:

    >>> from repro.constructions.mgrid import MGrid
    >>> point = tradeoff_point(MGrid(7, 3))
    >>> round(point.load, 4), point.resilience, round(point.resilience_bound, 1)
    (0.4898, 5, 24.0)
    >>> point.slack > 0
    True
    """
    from repro.api.measures import measure  # local: analysis sits above the facade

    load = measure(system, "load").value
    resilience = system.min_transversal_size() - 1
    bound = resilience_upper_bound_from_load(system.n, load)
    return TradeoffPoint(
        name=system.name,
        n=system.n,
        load=load,
        resilience=resilience,
        resilience_bound=bound,
        slack=bound - resilience,
    )


def verify_tradeoff(system: QuorumSystem, *, tolerance: float = 1e-9) -> bool:
    """Return ``True`` when ``f <= n L(Q)`` holds for ``system``.

    This is the Section 8 impossibility every quorum system must satisfy —
    a ``False`` here means a construction (or a load computation) is broken,
    which is why the property tests sweep it across the whole zoo.

    Examples
    --------
    >>> from repro.constructions.threshold import majority
    >>> verify_tradeoff(majority(9))
    True
    """
    point = tradeoff_point(system)
    return point.resilience <= point.resilience_bound + tolerance
