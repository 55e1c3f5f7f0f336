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

Monte-Carlo estimators go through :func:`count_witnessed_trials`, which draws
every trial in one array and settles the trials that contain enough fully open
rows and columns — straight crossings — before any search runs.
"""

from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.core.rng import ensure_rng
from repro.exceptions import ComputationError, InvalidParameterError
from repro.graphs.disjoint_paths import max_vertex_disjoint_paths
from repro.percolation.lattice import TriangularGrid, Vertex

__all__ = [
    "sample_open_vertices",
    "count_witnessed_trials",
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
    _validate_closure(p_closed)
    return _open_set(grid, rng.random((grid.side, grid.side)) >= p_closed)


def _validate_closure(p_closed: float) -> None:
    if not 0.0 <= p_closed <= 1.0:
        raise InvalidParameterError(f"closure probability must lie in [0, 1], got {p_closed}")


def _open_set(grid: TriangularGrid, is_open: np.ndarray) -> set[Vertex]:
    """The open vertices of one ``(side, side)`` sample; ``(i, j)`` reads ``is_open[i-1, j-1]``."""
    # Row-major over the sample is the grid's own vertex order.
    return set(compress(grid.vertices(), is_open.ravel().tolist()))


#: Uniform draws per batch of :func:`count_witnessed_trials` (8 MB of doubles).
_BATCH_DRAWS = 1 << 20


def count_witnessed_trials(
    grid: TriangularGrid,
    p_closed: float,
    trials: int,
    rng: np.random.Generator,
    *,
    rows: int,
    columns: int,
    holds: Callable[[set[Vertex]], bool],
) -> int:
    """Count the percolation trials in which the event ``holds`` occurs.

    ``holds(open_vertices)`` must be implied by *at least ``rows`` fully open
    rows and at least ``columns`` fully open columns*: a row is a straight LR
    crossing and a column a straight TB crossing, pairwise vertex-disjoint
    within each direction.  Trials with that straight-line witness are counted
    in numpy; ``holds`` runs only on the others.

    The trials are drawn in batches of ``(batch, side, side)`` uniforms, which
    is the stream ``trials`` calls of :func:`sample_open_vertices` read, so the
    count equals that per-trial loop's.
    """
    _validate_closure(p_closed)
    side = grid.side
    batch = max(1, _BATCH_DRAWS // (side * side))
    count = 0
    for start in range(0, trials, batch):
        is_open = rng.random((min(batch, trials - start), side, side)) >= p_closed
        # Axis 1 is i (the column index), axis 2 is j (the row index).
        witnessed = (np.count_nonzero(is_open.all(axis=1), axis=1) >= rows) & (
            np.count_nonzero(is_open.all(axis=2), axis=1) >= columns
        )
        count += int(np.count_nonzero(witnessed))
        count += sum(holds(_open_set(grid, sample)) for sample in is_open[~witnessed])
    return count


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

    A sample with ``min_disjoint`` fully open rows (``"lr"``) or columns
    (``"tb"``) counts at once; every other sample is one disjoint-crossing
    search bounded at ``min_disjoint``.
    """
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials}")
    if direction == "lr":
        rows, columns = min_disjoint, 0
    elif direction == "tb":
        rows, columns = 0, min_disjoint
    else:
        raise ComputationError(f"unknown crossing direction {direction!r}")
    successes = count_witnessed_trials(
        grid,
        p_closed,
        trials,
        ensure_rng(rng),
        rows=rows,
        columns=columns,
        holds=lambda open_vertices: count_disjoint_crossings(
            grid, open_vertices, direction=direction, limit=min_disjoint
        )
        >= min_disjoint,
    )
    probability = successes / trials
    std_error = float(np.sqrt(max(probability * (1 - probability), 1e-12) / trials))
    return CrossingEstimate(probability=probability, std_error=std_error, trials=trials)
