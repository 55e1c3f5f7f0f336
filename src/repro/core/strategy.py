"""Access strategies over quorum systems (Definition 3.8, first half).

An access strategy ``w`` is a probability distribution over the quorums of a
system: ``w(Q) >= 0`` and ``sum_Q w(Q) = 1``.  The *load induced on an
element* ``u`` is ``l_w(u) = sum_{Q ∋ u} w(Q)``; the load induced on the
system is the maximum over elements.  The system load (the paper's ``L(Q)``)
is the minimum of the induced load over all strategies, computed in
:mod:`repro.core.load`.

See ``docs/notation.md`` for the notation glossary (w, l_w(u), L(Q)).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, ItemsView, Iterable, Mapping
from functools import cached_property
from typing import TypeVar

import numpy as np

from repro.core import bitset as bitset_mod
from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import StrategyError

__all__ = ["Strategy"]

#: Probabilities are accepted as valid when they sum to one within this slack.
_PROBABILITY_TOLERANCE = 1e-9

#: ``sample_many`` draws and inverts about this many uniforms at a time, in
#: whole rows, so its buffers stay a few MB whatever the batch size.
_SAMPLE_CHUNK = 1 << 18

_Key = TypeVar("_Key", frozenset, int)


def _distribution(
    pairs: Iterable[tuple[_Key, float]],
    *,
    normalise: bool,
    members: Callable[[_Key], Iterable[Hashable]],
) -> dict[_Key, float]:
    """Merge ``(quorum, weight)`` pairs into a checked probability distribution.

    Rejects a weight below ``-tolerance``, drops the other non-positive ones,
    sums the weights of a repeated quorum (first-seen order), and rescales to
    sum one (``normalise``) or requires that sum.  ``members(key)`` lists a
    quorum's elements for the error message.
    """
    merged: dict[_Key, float] = {}
    for key, weight in pairs:
        weight = float(weight)
        if weight < -_PROBABILITY_TOLERANCE:
            raise StrategyError(f"negative probability {weight} for quorum {set(members(key))}")
        if weight <= 0.0:
            continue
        merged[key] = merged.get(key, 0.0) + weight
    if not merged:
        raise StrategyError("a strategy must give positive probability to some quorum")
    total = sum(merged.values())
    if normalise:
        return {key: weight / total for key, weight in merged.items()}
    if abs(total - 1.0) > _PROBABILITY_TOLERANCE:
        raise StrategyError(f"strategy probabilities sum to {total}, expected 1")
    return merged


class Strategy:
    """A probability distribution over quorums.

    Parameters
    ----------
    weights:
        Mapping from quorum (any iterable of elements; normalised to
        ``frozenset``) to its access probability.  Quorums with zero weight
        may be omitted.
    normalise:
        When ``True``, rescale the weights to sum to one instead of rejecting
        a distribution that does not.

    A strategy built by :meth:`from_masks` keeps its quorums as bitmasks:
    sampling, :attr:`probabilities` and the mask views never build a
    frozenset, and the frozenset view (:attr:`support`, :meth:`items`,
    :meth:`probability`, :meth:`induced_loads`, :meth:`restricted_to`,
    :meth:`validate_against`, :meth:`sample`) is built once, on first read.

    Examples
    --------
    >>> w = Strategy({frozenset({0, 1}): 0.5, frozenset({1, 2}): 0.5})
    >>> w.probability(frozenset({0, 1}))
    0.5
    """

    def __init__(
        self,
        weights: Mapping[Iterable[Hashable], float],
        *,
        normalise: bool = False,
    ):
        cleaned = _distribution(
            ((frozenset(quorum), weight) for quorum, weight in weights.items()),
            normalise=normalise,
            members=frozenset,
        )
        self._adopt(cleaned.values())
        self._quorum_weights = cleaned

    def _adopt(self, weights: Iterable[float]) -> None:
        """Build the sampling arrays over a checked distribution, and empty caches."""
        # Sampling arrays, built once: the probability vector over the support
        # and its cumulative sums.  ``sample_index`` and ``sample_many`` draw
        # uniforms and invert the cumulative distribution, so one scalar draw
        # and one vectorised draw read the same stream.
        probabilities = np.fromiter(weights, dtype=float)
        probabilities /= probabilities.sum()
        probabilities.setflags(write=False)
        self._probabilities = probabilities
        cumulative = np.cumsum(probabilities)
        cumulative.setflags(write=False)
        self._cumulative = cumulative
        self._guide: tuple[np.ndarray, np.ndarray] | None = None
        #: Caches of the mask-native views of the support (bitmask tuples and
        #: :class:`~repro.core.bitset.BitsetEngine`), keyed by universe: the
        #: masks are a pure function of the support and the universe's
        #: element order, which is what ``Universe`` equality compares.
        self._mask_cache: dict[Universe, tuple[int, ...]] = {}
        self._engine_cache: dict[Universe, bitset_mod.BitsetEngine] = {}

    @cached_property
    def _quorum_weights(self) -> dict[frozenset, float]:
        """The frozenset view, quorum -> probability in support order.

        ``__init__`` sets it; a :meth:`from_masks` strategy builds it here, on
        first read, from its masks.
        """
        universe, weights = self._mask_weights
        return dict(zip(bitset_mod.frozensets_of(list(weights), universe), weights.values()))

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, quorums: Iterable[Iterable[Hashable]]) -> "Strategy":
        """Return the uniform strategy over the given quorums."""
        quorum_list = [frozenset(quorum) for quorum in quorums]
        if not quorum_list:
            raise StrategyError("cannot build a uniform strategy over no quorums")
        weight = 1.0 / len(quorum_list)
        return cls({quorum: weight for quorum in quorum_list})

    @classmethod
    def uniform_over_system(cls, system: QuorumSystem) -> "Strategy":
        """Return the uniform strategy over all quorums of ``system``.

        Built once per system object and cached on it, beside
        :meth:`~repro.core.quorum_system.QuorumSystem.bitset_engine`, so the
        strategy's sampling arrays and support engine are shared by every
        workload run on that object.
        """
        cached = system._uniform_strategy_cache
        if cached is None:
            cached = cls.from_masks(system.universe, system.quorum_masks())
            system._uniform_strategy_cache = cached
        return cached

    @classmethod
    def from_vector(
        cls, system: QuorumSystem, vector: np.ndarray, *, normalise: bool = True
    ) -> "Strategy":
        """Build a strategy from a weight vector aligned with ``system.quorum_masks()``.

        When ``normalise`` is set the vector is rescaled by its *full* total
        before non-positive entries are dropped, and the surviving weights are
        then required to sum to one.  Truncating exact zeros therefore changes
        nothing, while a vector carrying meaningful negative mass is rejected
        (previously the negatives were silently dropped and their mass
        redistributed over the remaining quorums).
        """
        masks = system.quorum_masks()
        vector = np.asarray(vector, dtype=float)
        if vector.ndim != 1 or len(vector) != len(masks):
            raise StrategyError(
                f"weight vector has length {len(vector)}, expected {len(masks)}"
            )
        if normalise:
            total = float(vector.sum())
            if total <= 0.0:
                raise StrategyError(
                    f"weight vector sums to {total}; cannot normalise a non-positive total"
                )
            vector = vector / total
        positive = np.flatnonzero(vector > 0.0)
        return cls.from_masks(
            system.universe,
            [masks[position] for position in positive],
            vector[positive],
            normalise=False,
        )

    @classmethod
    def from_masks(
        cls,
        universe: Universe,
        masks: Iterable[int],
        weights: Iterable[float] | None = None,
        *,
        normalise: bool = True,
    ) -> "Strategy":
        """Build a strategy directly from ``int`` bitmasks over ``universe``.

        This is the mask-native constructor every system-derived strategy
        goes through (:meth:`uniform_over_system`, :meth:`from_vector`,
        :meth:`repro.core.quorum_system.ImplicitQuorumSystem.support_strategy`):
        duplicated masks are merged by summing their weights, and the
        strategy keeps the masks, so the sampling hot paths
        (:meth:`support_masks`, :meth:`support_engine`) never build a
        frozenset.

        Parameters
        ----------
        universe:
            The universe the mask bit positions refer to.
        masks:
            Quorum bitmasks, each a non-empty subset of ``universe``;
            duplicates are allowed and merged.
        weights:
            Optional per-mask weights aligned with ``masks`` (uniform when
            omitted).
        normalise:
            Rescale the merged weights to sum to one (the default), or
            require them to already be a distribution.
        """
        mask_list = list(masks)
        if weights is None:
            weight_list = [1.0] * len(mask_list)
        else:
            weight_list = [float(weight) for weight in weights]
            if len(weight_list) != len(mask_list):
                raise StrategyError(
                    f"{len(mask_list)} masks but {len(weight_list)} weights"
                )
        if mask_list:
            smallest, largest = min(mask_list), max(mask_list)
            bad = smallest if smallest <= 0 else largest
            if bad <= 0 or bad.bit_length() > universe.size:
                raise StrategyError(
                    f"mask {bad:#b} is not a non-empty subset of the "
                    f"{universe.size}-element universe"
                )
        cleaned = _distribution(
            zip(mask_list, weight_list),
            normalise=normalise,
            members=lambda mask: bitset_mod.mask_to_frozenset(mask, universe),
        )
        strategy = cls.__new__(cls)
        strategy._adopt(cleaned.values())
        strategy._mask_weights = (universe, cleaned)
        strategy._mask_cache[universe] = tuple(cleaned)
        return strategy

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @cached_property
    def support(self) -> tuple[frozenset, ...]:
        """The quorums that receive positive probability."""
        return tuple(self._quorum_weights)

    def probability(self, quorum: Iterable[Hashable]) -> float:
        """Return the probability assigned to ``quorum`` (0 if unsupported)."""
        return self._quorum_weights.get(frozenset(quorum), 0.0)

    def items(self) -> ItemsView[frozenset, float]:
        """Iterate over ``(quorum, probability)`` pairs."""
        return self._quorum_weights.items()

    def validate_against(self, system: QuorumSystem) -> None:
        """Check that every supported set is a quorum of ``system``.

        Raises
        ------
        StrategyError
            If some supported set is not among the system's quorums.
        """
        universe = system.universe
        members = universe.as_frozenset()
        quorum_masks = set(system.quorum_masks())
        for quorum in self.support:
            if not quorum <= members or bitset_mod.mask_of(quorum, universe) not in quorum_masks:
                raise StrategyError(
                    f"strategy assigns probability to {set(quorum)}, "
                    f"which is not a quorum of {system.name}"
                )

    # ------------------------------------------------------------------
    # Induced load (Definition 3.8).
    # ------------------------------------------------------------------
    def induced_loads(self, universe: Universe) -> dict[Hashable, float]:
        """Return ``l_w(u)`` for every element ``u`` of ``universe``.

        Raises
        ------
        StrategyError
            If some supported quorum contains an element outside ``universe``
            — a strategy/universe mismatch that would otherwise silently
            under-report the induced load.
        """
        loads = {element: 0.0 for element in universe}
        for quorum, weight in self._quorum_weights.items():
            for element in quorum:
                if element not in loads:
                    raise StrategyError(
                        f"strategy supports a quorum containing {element!r}, "
                        f"which is not part of the given universe"
                    )
                loads[element] += weight
        return loads

    def induced_system_load(self, universe: Universe) -> float:
        """Return ``L_w(Q) = max_u l_w(u)``, the load induced by this strategy."""
        return max(self.induced_loads(universe).values())

    # ------------------------------------------------------------------
    # Sampling (cached inverse-CDF arrays, shared by all sampling paths).
    # ------------------------------------------------------------------
    @property
    def probabilities(self) -> np.ndarray:
        """The probability vector over :attr:`support` (read-only, sums to 1)."""
        return self._probabilities

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw one support index according to the strategy (one uniform draw)."""
        draw = rng.random()
        index = np.searchsorted(
            self._cumulative, draw * self._cumulative[-1], side="right"
        )
        return min(int(index), len(self._probabilities) - 1)

    def sample(self, rng: np.random.Generator) -> frozenset:
        """Draw one quorum according to the strategy."""
        return self.support[self.sample_index(rng)]

    def sample_many(
        self,
        rng: np.random.Generator,
        size: int | tuple[int, ...],
        *,
        full_rows: np.ndarray | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Draw a batch of support indices according to the strategy.

        Parameters
        ----------
        rng:
            Randomness source; consumes ``np.prod(size)`` uniform draws, the
            same stream a loop of :meth:`sample_index` calls would consume.
        size:
            Output shape (an int or a shape tuple).
        full_rows:
            With a 2-D ``size`` ``(T, A)``: the sorted indices of the rows
            whose every draw is wanted.  All ``T * A`` draws are still
            consumed in row-major order, but the draws of the other rows past
            column 0 are skipped, not inverted.

        Returns
        -------
        numpy.ndarray or tuple
            Integer indices into :attr:`support`, of the requested shape.
            With ``full_rows``, the pair ``(first, rest)`` instead: column 0
            of every row, shape ``(T,)``, and columns ``1..`` of the full
            rows, shape ``(len(full_rows), A - 1)``; each entry equals the
            one the plain call returns from the same stream.  Combine with
            :meth:`support_engine` to resolve indices into bitmasks or
            incidence rows without building any frozensets.

        Each draw is inverted through the guide table of
        :meth:`_guide_table` instead of a binary search over the whole
        cumulative vector; the result is the same index, draw for draw.

        Examples
        --------
        >>> w = Strategy({frozenset({0}): 0.2, frozenset({1}): 0.5, frozenset({2}): 0.3})
        >>> w.sample_many(np.random.default_rng(7), 8).tolist()
        [1, 2, 2, 1, 1, 2, 0, 2]
        >>> rng = np.random.default_rng(7)
        >>> [w.sample_index(rng) for _ in range(8)]
        [1, 2, 2, 1, 1, 2, 0, 2]
        """
        plain = full_rows is None
        if full_rows is None:
            # Every draw is read: one column, and no row past it.
            first = np.empty(size, dtype=np.int64)
            rows, columns, full_rows = first.size, 1, np.empty(0, dtype=np.intp)
        else:
            rows, columns = size  # type: ignore[misc]
            first = np.empty(rows, dtype=np.int64)
        rest = np.empty((len(full_rows), columns - 1), dtype=np.int64)
        first_flat = first.reshape(-1)
        guide, bounds = self._guide_table()
        total = self._cumulative[-1]
        # Whole rows of about _SAMPLE_CHUNK draws at a time, into reused
        # buffers; the full rows of the chunk starting at ``span * c`` are
        # ``full_rows[edges[c]:edges[c + 1]]``.
        span = max(1, _SAMPLE_CHUNK // columns)
        block = np.empty(span * columns)
        wanted = np.empty(span * columns)
        found = np.empty(span * columns, dtype=np.int64)
        edges = full_rows.searchsorted(np.arange(0, rows + span, span))
        for chunk, start in enumerate(range(0, rows, span)):
            width = min(span, rows - start)
            draws = block[: width * columns].reshape(width, columns)
            rng.random(out=draws)
            # Gather the draws that are read: column 0, then the full rows'
            # columns 1.. in row-major order.
            low, high = edges[chunk], edges[chunk + 1]
            count = width + (high - low) * (columns - 1)
            targets = wanted[:count]
            targets[:width] = draws[:, 0]
            targets[width:].reshape(high - low, columns - 1)[...] = draws[
                full_rows[low:high] - start, 1:
            ]
            # The bucket's entry, then one step forward: enough for every
            # draw whose bucket holds at most one cumulative boundary.
            indices = found[:count]
            guide.take((targets * len(guide)).astype(np.intp), out=indices)
            np.multiply(targets, total, out=targets)
            indices += bounds[indices] <= targets
            (late,) = (bounds[indices] <= targets).nonzero()
            if late.size:
                indices[late] = bounds.searchsorted(targets[late], side="right")
            first_flat[start : start + width] = indices[:width]
            rest[low:high] = indices[width:].reshape(high - low, columns - 1)
        return first if plain else (first, rest)

    def _guide_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The guide table ``(guide, bounds)`` that :meth:`sample_many` reads.

        ``bounds`` is the cumulative vector with its last entry raised to
        ``inf``, so the count of ``bounds`` entries ``<= t`` is
        ``min(searchsorted(cumulative, t, "right"), m - 1)``: the index
        :meth:`sample_index` returns for ``t = draw * total``.  ``guide`` has
        ``K`` buckets, ``K`` the least power of two ``>= 2m``, and bucket
        ``k`` holds that count at the edge ``fl((k / K) * total)``.  A draw
        ``d`` falls in bucket ``floor(d * K)``, exactly since ``K`` is a power
        of two, so ``d >= k / K`` and, rounding being monotone,
        ``fl(d * total)`` is at least the edge: a draw never starts past its
        index, and advancing while ``bounds[index] <= t`` stops on it.
        Built on first use (Chen and Asau's indexed search).
        """
        if self._guide is None:
            bounds = self._cumulative.copy()
            bounds[-1] = np.inf
            buckets = 1 << (2 * len(bounds) - 1).bit_length()
            edges = np.arange(buckets) / buckets * self._cumulative[-1]
            self._guide = (bounds.searchsorted(edges, side="right"), bounds)
        return self._guide

    def support_masks(self, universe: Universe) -> tuple[int, ...]:
        """The support quorums as ``int`` bitmasks over ``universe`` (cached)."""
        cached = self._mask_cache.get(universe)
        if cached is None:
            cached = bitset_mod.masks_of(self.support, universe)
            self._mask_cache[universe] = cached
        return cached

    def support_engine(self, universe: Universe) -> bitset_mod.BitsetEngine:
        """A :class:`~repro.core.bitset.BitsetEngine` over the support (cached).

        Rows are support quorums in :attr:`support` order, so indices from
        :meth:`sample_many` index directly into its packed and incidence views.
        """
        cached = self._engine_cache.get(universe)
        if cached is None:
            cached = bitset_mod.BitsetEngine(universe, self.support_masks(universe))
            self._engine_cache[universe] = cached
        return cached

    # ------------------------------------------------------------------
    # Epoch re-weighting.
    # ------------------------------------------------------------------
    def restricted_to(self, members: Iterable[Hashable]) -> "Strategy | None":
        """Re-weight this strategy over the quorums surviving a reconfiguration.

        Keeps exactly the supported quorums that are subsets of ``members``
        and renormalises their probabilities — the incremental re-weighting
        path on epoch change.  Returns ``None`` when no supported quorum
        survives, signalling the caller to fall back to a full re-solve.
        """
        member_set = frozenset(members)
        surviving = {
            quorum: weight
            for quorum, weight in self._quorum_weights.items()
            if quorum <= member_set
        }
        if not surviving:
            return None
        return Strategy(surviving, normalise=True)

    def __len__(self) -> int:
        return len(self._probabilities)

    def __repr__(self) -> str:
        return f"Strategy(support={len(self)} quorums)"
