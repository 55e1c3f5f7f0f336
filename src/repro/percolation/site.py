"""Site percolation on the triangulated grid.

Each vertex of a :class:`~repro.percolation.lattice.TriangularGrid` is
*closed* (crashed) independently with probability ``p`` and *open* (alive)
otherwise.  The events the M-Path analysis cares about are

* ``LR``   — an open left-right crossing exists,
* ``LR_k`` — at least ``k`` vertex-disjoint open left-right crossings exist
  (the interior ``I_{k-1}(LR)`` of Definition B.2), and the analogous top-
  bottom events.

Both are one question to :mod:`repro.graphs.disjoint_paths` — are there at
least ``limit`` vertex-disjoint open crossings? — answered by an augmenting-path
search that stops at ``limit``; crossing existence is ``limit=1``.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.core.rng import ensure_rng
from repro.exceptions import ComputationError, InvalidParameterError
from repro.graphs.disjoint_paths import max_vertex_disjoint_paths
from repro.percolation.lattice import TriangularGrid, Vertex

__all__ = [
    "sample_open_vertices",
    "has_open_crossing",
    "count_disjoint_crossings",
    "CrossingEstimate",
    "estimate_crossing_probability",
]


def sample_open_vertices(
    grid: TriangularGrid, p_closed: float, rng: np.random.Generator
) -> set[Vertex]:
    """Return the set of open (alive) vertices for one percolation sample.

    Each vertex is closed independently with probability ``p_closed``.
    """
    if not 0.0 <= p_closed <= 1.0:
        raise InvalidParameterError(f"closure probability must lie in [0, 1], got {p_closed}")
    # Row-major over the draw is the grid's own vertex order: (i, j) reads draws[i-1, j-1].
    draws = rng.random((grid.side, grid.side))
    return set(compress(grid.vertices(), (draws >= p_closed).ravel().tolist()))


def has_open_crossing(
    grid: TriangularGrid,
    open_vertices: Collection[Vertex],
    *,
    direction: str = "lr",
) -> bool:
    """Return ``True`` when an open crossing exists in the given direction.

    ``direction`` is ``"lr"`` (left to right) or ``"tb"`` (top to bottom).
    """
    return count_disjoint_crossings(grid, open_vertices, direction=direction, limit=1) == 1


def count_disjoint_crossings(
    grid: TriangularGrid,
    open_vertices: Collection[Vertex],
    *,
    direction: str = "lr",
    limit: int | None = None,
) -> int:
    """Return the maximum number of vertex-disjoint open crossings, capped at ``limit``.

    This is the quantity that decides whether an M-Path quorum survives: a
    quorum needs ``k = sqrt(2b+1)`` disjoint LR crossings and as many TB
    crossings, so M-Path asks with ``limit=k`` and the search stops at the
    ``k``-th crossing instead of counting them all.
    """
    if direction == "lr":
        sources, sinks = grid.left_side(), grid.right_side()
    elif direction == "tb":
        sources, sinks = grid.bottom_side(), grid.top_side()
    else:
        raise ComputationError(f"unknown crossing direction {direction!r}")
    return max_vertex_disjoint_paths(
        open_vertices, grid.neighbours, sources, sinks, limit=limit
    )


@dataclass(frozen=True)
class CrossingEstimate:
    """Monte-Carlo estimate of a crossing probability.

    Attributes
    ----------
    probability:
        Estimated probability of the crossing event.
    std_error:
        Standard error of the estimate.
    trials:
        Number of samples used.
    """

    probability: float
    std_error: float
    trials: int


def estimate_crossing_probability(
    grid: TriangularGrid,
    p_closed: float,
    *,
    trials: int = 500,
    min_disjoint: int = 1,
    direction: str = "lr",
    rng: np.random.Generator | None = None,
) -> CrossingEstimate:
    """Estimate ``P(at least min_disjoint open crossings exist)``.

    Each sample is one disjoint-crossing search bounded at ``min_disjoint``.
    """
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials}")
    rng = ensure_rng(rng)
    successes = 0
    for _ in range(trials):
        open_vertices = sample_open_vertices(grid, p_closed, rng)
        count = count_disjoint_crossings(
            grid, open_vertices, direction=direction, limit=min_disjoint
        )
        if count >= min_disjoint:
            successes += 1
    probability = successes / trials
    std_error = float(np.sqrt(max(probability * (1 - probability), 1e-12) / trials))
    return CrossingEstimate(probability=probability, std_error=std_error, trials=trials)
