"""The multi-path (M-Path) construction of Section 7.

Servers are the vertices of a triangulated ``sqrt(n) x sqrt(n)`` grid
(:class:`~repro.percolation.lattice.TriangularGrid`).  A quorum consists of
``sqrt(2b+1)`` vertex-disjoint left-right paths together with ``sqrt(2b+1)``
vertex-disjoint top-bottom paths (Figure 3).  The LR paths of one quorum must
cross the TB paths of any other, which yields intersections of at least
``2b + 1`` vertices (Proposition 7.1).

M-Path matches M-Grid's optimal load (Proposition 7.2) but, unlike every
other construction in the paper, it also has optimal crash probability for
*every* ``p < 1/2`` (Proposition 7.3) — a consequence of the percolation
threshold of the triangular lattice being 1/2.  The generic quorum family is
far too large to enumerate, so this class exposes

* analytic combinatorial parameters,
* the straight-line sub-family of quorums (rows and columns only), which is
  what the load-optimal strategy of Proposition 7.2 uses, and
* Monte-Carlo availability via the percolation substrate (a search for ``k``
  disjoint open crossings per direction, linear in ``n`` for fixed ``k``,
  run only on trials that contain no straight-line quorum).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from repro.core import bitset
from repro.core.availability import validate_probability
from repro.core.masking import can_mask, intersection_count
from repro.core.quorum_system import ExplicitQuorumSystem, QuorumSystem
from repro.core.rng import ensure_rng
from repro.core.universe import Universe
from repro.exceptions import ComputationError, ConstructionError, InvalidParameterError
from repro.percolation.lattice import TriangularGrid
from repro.percolation.site import count_disjoint_crossings, count_witnessed_trials

__all__ = ["MPath"]


class MPath(QuorumSystem):
    """The M-Path(b) quorum system over a triangulated ``side x side`` grid.

    Parameters
    ----------
    side:
        The grid side; the universe has ``n = side ** 2`` servers labelled by
        their lattice coordinates ``(i, j)`` with ``1 <= i, j <= side``.
    b:
        The masking parameter.  The construction uses
        ``k = ceil(sqrt(2b + 1))`` paths per direction and requires
        ``MT = side - k + 1 >= b + 1`` (Proposition 7.1).
    """

    #: Only the straight-line sub-family is enumerated; the full system is
    #: too large, so generic exact measures must not silently use it.
    enumerates_all_quorums = False

    def __init__(self, side: int, b: int):
        if side < 2:
            raise ConstructionError(f"grid side must be at least 2, got {side}")
        if b < 0:
            raise ConstructionError(f"masking parameter must be >= 0, got {b}")
        self.side = side
        self.b = b
        #: Number of LR (and of TB) paths per quorum, ``ceil(sqrt(2b+1))``.
        self.k = math.isqrt(intersection_count(b) - 1) + 1
        if self.k > side:
            raise ConstructionError(
                f"M-Path needs ceil(sqrt(2b+1)) <= side; got b={b}, side={side}"
            )
        if not can_mask(self.min_intersection_size(), self.min_transversal_size(), b):
            raise ConstructionError(
                f"M-Path over a {side}x{side} grid is not {b}-masking: "
                f"resilience {side - self.k} < b = {b}"
            )
        self.grid = TriangularGrid(side)
        self._universe = Universe(self.grid.vertices())
        self.name = f"M-Path({side}x{side}, b={b})"

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    @property
    def universe(self) -> Universe:
        return self._universe

    def _line_masks(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per-row and per-column vertex bitmasks over the universe (built once)."""
        cached = getattr(self, "_line_mask_cache", None)
        if cached is None:
            row_masks = {
                j: bitset.mask_of(self.grid.row(j), self._universe)
                for j in range(1, self.side + 1)
            }
            column_masks = {
                i: bitset.mask_of(self.grid.column(i), self._universe)
                for i in range(1, self.side + 1)
            }
            cached = (row_masks, column_masks)
            self._line_mask_cache = cached
        return cached

    def iter_quorum_masks(self) -> Iterator[int]:
        """Yield the *straight-line* quorums (k rows plus k columns).

        This is a strict sub-family of the full M-Path quorum set (any
        collection of disjoint lattice paths would do), but it is the family
        the load-optimal strategy of Proposition 7.2 draws from, and it is
        the family the simulator uses.
        """
        row_masks, column_masks = self._line_masks()
        indices = range(1, self.side + 1)
        for rows in itertools.combinations(indices, self.k):
            row_mask = 0
            for j in rows:
                row_mask |= row_masks[j]
            for columns in itertools.combinations(indices, self.k):
                mask = row_mask
                for i in columns:
                    mask |= column_masks[i]
                yield mask

    def straight_line_subsystem(self, *, limit: int = 200_000) -> ExplicitQuorumSystem:
        """Return the straight-line quorums as an explicit quorum system."""
        masks = tuple(itertools.islice(self.iter_quorum_masks(), limit + 1))
        if len(masks) > limit:
            raise ComputationError(
                f"more than {limit} straight-line quorums; raise the limit explicitly"
            )
        return ExplicitQuorumSystem.from_masks(
            self._universe, masks, name=f"{self.name} (straight lines)"
        )

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """Sample a straight-line quorum: k uniform rows and k uniform columns.

        This is exactly the strategy used in the proof of Proposition 7.2 and
        it realises the optimal load ``2k/side``.
        """
        row_masks, column_masks = self._line_masks()
        rows = rng.choice(self.side, size=self.k, replace=False)
        columns = rng.choice(self.side, size=self.k, replace=False)
        mask = 0
        for row in rows:
            mask |= row_masks[int(row) + 1]
        for column in columns:
            mask |= column_masks[int(column) + 1]
        return mask

    # ------------------------------------------------------------------
    # Analytic measures (Propositions 7.1 and 7.2).
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        """Return the straight-line quorum size ``2 k side - k^2 <= 2 sqrt(n(2b+1))``.

        This is an upper bound on the true ``c`` (bent paths cannot be
        shorter than ``side`` vertices each, and the straight-line family
        achieves the maximum row/column overlap), and it is the value the
        paper's ``c <= 2 sqrt(n(2b+1))`` statement refers to.
        """
        return 2 * self.k * self.side - self.k * self.k

    def min_intersection_size(self) -> int:
        """Return ``k^2 >= 2b + 1``: LR paths of one quorum cross TB paths of the other."""
        return self.k * self.k

    def min_transversal_size(self) -> int:
        """Return ``side - k + 1`` (as in M-Grid; Proposition 7.1)."""
        return self.side - self.k + 1

    def load(self) -> float:
        """Return the load of the straight-line strategy of Proposition 7.2.

        The strategy picks ``k`` of the ``side`` rows and ``k`` of the
        ``side`` columns uniformly; the probability that a fixed vertex is
        touched is ``1 - (1 - k/side)^2 = 2k/side - (k/side)^2``, which the
        paper upper-bounds by ``2k/side ~ 2 sqrt((2b+1)/n)``.
        """
        fraction = self.k / self.side
        return 2.0 * fraction - fraction * fraction

    # ------------------------------------------------------------------
    # Availability (Proposition 7.3) via percolation.
    # ------------------------------------------------------------------
    def _has_open_quorum(self, open_vertices: set) -> bool:
        """Whether some quorum lies inside ``open_vertices``.

        A quorum exists among the alive vertices exactly when there are at
        least ``k`` vertex-disjoint open LR crossings *and* at least ``k``
        vertex-disjoint open TB crossings (the LR and TB families may share
        vertices with each other, just not within a family).  Each search
        stops at its ``k``-th crossing.
        """
        lr = count_disjoint_crossings(self.grid, open_vertices, direction="lr", limit=self.k)
        if lr < self.k:
            return False
        tb = count_disjoint_crossings(self.grid, open_vertices, direction="tb", limit=self.k)
        return tb >= self.k

    def survives(self, crashed: set) -> bool:
        """Return ``True`` when some quorum avoids the ``crashed`` vertices."""
        return self._has_open_quorum(
            {vertex for vertex in self.grid.vertices() if vertex not in crashed}
        )

    def crash_probability(
        self,
        p: float,
        *,
        trials: int = 300,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Estimate ``Fp`` by Monte-Carlo percolation sampling.

        Each trial crashes every vertex independently with probability ``p``.
        A trial with ``k`` fully open rows and ``k`` fully open columns holds
        a straight-line quorum and survives without a search; any other trial
        runs one bounded disjoint-crossing search per direction (the second
        only when the first finds ``k``).
        """
        validate_probability(p)
        if trials <= 0:
            raise InvalidParameterError(f"trials must be positive, got {trials}")
        survivals = count_witnessed_trials(
            self.grid,
            p,
            trials,
            ensure_rng(rng),
            rows=self.k,
            columns=self.k,
            holds=self._has_open_quorum,
        )
        return (trials - survivals) / trials

    def crash_probability_upper_bound(self, p: float, p_prime: float | None = None) -> float:
        """Return the analytic bound of Proposition 7.3 (via Theorems B.1 and B.3).

        Combines the Bazzi-style counting estimate
        ``P_p'(LR) >= 1 - sqrt(n)(3p')^sqrt(n) / (1 - 3p')`` (valid for
        ``p' < 1/3``) with the interior inequality of Theorem B.3 to bound the
        probability that fewer than ``k`` disjoint crossings exist, and
        doubles it for the two directions (equation (7)).

        Parameters
        ----------
        p:
            The per-server crash probability (< 1/3 for this estimate).
        p_prime:
            The auxiliary probability ``p < p' < 1/3`` of Theorem B.3.  When
            omitted, the bound is minimised over a grid of candidate values
            (the paper picks ``p' = 1/7`` by hand for its Section 8 numbers).
        """
        if not 0.0 <= p < 1.0 / 3.0:
            raise ComputationError(
                f"the counting estimate needs p < 1/3, got {p}; "
                "use the Monte-Carlo crash_probability instead"
            )

        def evaluate(prime: float) -> float:
            one_minus_lr = self.side * (3.0 * prime) ** self.side / (1.0 - 3.0 * prime)
            amplification = ((1.0 - p) / (prime - p)) ** (self.k - 1)
            return 2.0 * amplification * one_minus_lr

        if p_prime is not None:
            if not p < p_prime < 1.0 / 3.0:
                raise ComputationError(
                    f"need p < p_prime < 1/3, got p={p}, p_prime={p_prime}"
                )
            return min(1.0, evaluate(p_prime))

        candidates = [p + (1.0 / 3.0 - p) * fraction for fraction in
                      (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
        return min(1.0, min(evaluate(prime) for prime in candidates))
