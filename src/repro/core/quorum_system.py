"""The quorum-system abstraction (Definitions 3.1–3.5 of the paper).

Two layers are provided:

* :class:`QuorumSystem` — an abstract base class.  A construction provides a
  universe, :meth:`~QuorumSystem.iter_quorum_masks` and, when its access
  strategy can be drawn without enumeration,
  :meth:`~QuorumSystem.sample_quorum_mask`; the base class derives the
  labelled frozenset views (``quorums``, ``sample_quorum``, ...) and every
  combinatorial measure the paper uses (``c``, ``IS``, ``MT``, degrees,
  fairness, resilience, masking ability) by enumeration, with caching.
  Constructions in :mod:`repro.constructions` override the measures they know
  in closed form, so that large systems never need to be enumerated.
* :class:`ExplicitQuorumSystem` — a concrete quorum system given by an
  explicit list of quorums, used for small systems, for composition results,
  and throughout the test-suite.
* :class:`ImplicitQuorumSystem` — a lazy view of a construction whose quorum
  family is *never* enumerated: measures come from the base construction's
  closed forms (see :mod:`repro.core.analytic`) and the quorum list is
  replaced by an i.i.d. sample drawn through the
  :meth:`QuorumSystem.sample_quorum_mask` protocol.  This is what lets the
  workload engines run at ``n = 10^3 .. 10^4`` servers (see
  ``docs/analysis.md``).

Terminology follows Table 1 of the paper:

===========  ===========================================================
``n``        number of servers, ``|U|``
``c(Q)``     size of the smallest quorum
``IS(Q)``    size of the smallest intersection between two quorums
``MT(Q)``    size of the smallest transversal
``f``        resilience, ``MT(Q) - 1``
``b``        number of Byzantine failures maskable by the system
===========  ===========================================================

Quorums are ``int`` bitmasks over the universe's index order (see
:mod:`repro.core.bitset`); the enumeration-based measures run vectorised on
the cached :meth:`QuorumSystem.bitset_engine`.  ``docs/notation.md`` states
the construction contract and maps the paper's notation to the implementing
functions.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable, Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.core import bitset as bitset_mod
from repro.core import transversal as transversal_mod
from repro.core.bitset import BitsetEngine
from repro.core.masking import intersection_count, largest_b
from repro.core.universe import Universe
from repro.exceptions import ComputationError, InvalidQuorumSystemError

if TYPE_CHECKING:  # circular at runtime: strategy imports this module
    from repro.core.strategy import Strategy

__all__ = [
    "QuorumSystem",
    "ExplicitQuorumSystem",
    "QuorumSystemView",
    "ImplicitQuorumSystem",
    "unwrap",
]

#: Default cap on the number of quorums the generic (enumeration based)
#: measure implementations are willing to materialise.
DEFAULT_ENUMERATION_LIMIT = 200_000


class QuorumSystem(ABC):
    """Abstract base class for quorum systems (Definition 3.1).

    Subclasses must implement :meth:`universe` and :meth:`iter_quorum_masks`.
    Everything else has a generic, enumeration-based default implementation
    that constructions override with the paper's closed forms whenever these
    are available.
    """

    #: Human readable name used in tables and reports.
    name: str = "quorum-system"

    #: Whether :meth:`iter_quorum_masks` enumerates *all* quorums of the
    #: system.  Some very large constructions (e.g. M-Path) only enumerate a
    #: canonical sub-family; they set this to ``False`` so that the generic
    #: measure implementations refuse to silently compute wrong exact values.
    enumerates_all_quorums: bool = True

    #: Whether this object is an :class:`ImplicitQuorumSystem` view whose
    #: ``quorums()`` is a *sampled sub-family* rather than the real family.
    #: Exact computations over the quorum list (the load LP, strategy caches)
    #: check this flag so they can refuse with a clear
    #: :class:`~repro.exceptions.ComputationError` instead of silently
    #: treating the sample as the truth.
    is_implicit: bool = False

    #: The uniform strategy over the quorums, built on first use by
    #: :meth:`Strategy.uniform_over_system <repro.core.strategy.Strategy.uniform_over_system>`
    #: and kept on the object beside the :meth:`bitset_engine` cache.
    _uniform_strategy_cache: Strategy | None = None

    # ------------------------------------------------------------------
    # Abstract surface.
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def universe(self) -> Universe:
        """The universe of servers the system is built over."""

    @abstractmethod
    def iter_quorum_masks(self) -> Iterator[int]:
        """Yield the quorums as ``int`` bitmasks over the universe's index order."""

    # ------------------------------------------------------------------
    # Bitmask engine (the representation the hot paths run on).
    # ------------------------------------------------------------------
    def quorum_masks(self, *, limit: int | None = DEFAULT_ENUMERATION_LIMIT) -> tuple[int, ...]:
        """Return the quorum bitmasks as a tuple, enumerating at most ``limit`` of them.

        Raises
        ------
        ComputationError
            If the system declares that it cannot enumerate all its quorums,
            or if the enumeration exceeds ``limit``.
        """
        if not self.enumerates_all_quorums:
            raise ComputationError(
                f"{self.name} cannot enumerate its full quorum list; "
                "use its analytic measures or sample_quorum instead"
            )
        cached = getattr(self, "_quorum_mask_cache", None)
        if cached is None:
            # One past the budget is enough to know it is exceeded.
            stop = None if limit is None else limit + 1
            cached = tuple(itertools.islice(self.iter_quorum_masks(), stop))
        # Checked on the cached path too: the budget is the caller's, not
        # that of whoever enumerated first.
        if limit is not None and len(cached) > limit:
            raise ComputationError(
                f"{self.name} has more than {limit} quorums; "
                "raise the limit explicitly if enumeration is really wanted"
            )
        self._quorum_mask_cache = cached
        return cached

    def bitset_engine(self) -> BitsetEngine:
        """Return the system's :class:`~repro.core.bitset.BitsetEngine` (built once).

        The engine caches the bitmask list, the bit-packed ``uint64`` array,
        the incidence matrix and the survival kernel's member table on this
        system object, so every measure that reuses the *object* pays the
        enumeration cost once.  A spec or registry name passed to
        :func:`repro.api.measure` builds a fresh system, and so a fresh
        engine, on each call; pass the built system to share the caches.
        """
        cached = getattr(self, "_bitset_engine_cache", None)
        if cached is None:
            cached = BitsetEngine(self.universe, self.quorum_masks())
            self._bitset_engine_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Basic structure.
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """The number of servers ``n = |U|``."""
        return self.universe.size

    def iter_quorums(self) -> Iterator[frozenset]:
        """Yield the quorums as frozensets of universe elements, in mask order."""
        universe = self.universe
        for mask in self.iter_quorum_masks():
            yield bitset_mod.mask_to_frozenset(mask, universe)

    def quorums(self, *, limit: int | None = DEFAULT_ENUMERATION_LIMIT) -> tuple[frozenset, ...]:
        """Return :meth:`quorum_masks` as a tuple of frozensets (cached, same order)."""
        masks = self.quorum_masks(limit=limit)
        cached = getattr(self, "_quorum_cache", None)
        if cached is None:
            universe = self.universe
            cached = tuple(bitset_mod.mask_to_frozenset(mask, universe) for mask in masks)
            self._quorum_cache = cached
        return cached

    def num_quorums(self) -> int:
        """Return the number of quorums (by enumeration unless overridden)."""
        return len(self.quorum_masks())

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """Draw one quorum, as a bitmask, under the system's preferred access strategy.

        The default strategy is uniform over the enumerated quorum list;
        constructions override this with their load-optimal strategy, drawn
        from precomputed structure masks (rows/columns, subtree choices, ...)
        without building the family.  Every other sampler is a view of this
        one, and it is the only access path that scales to universes where
        the family itself is astronomically large
        (:class:`ImplicitQuorumSystem`).
        """
        masks = self.quorum_masks()
        return masks[int(rng.integers(len(masks)))]

    def sample_quorum(self, rng: np.random.Generator) -> frozenset:
        """Return :meth:`sample_quorum_mask`'s draw as a frozenset of servers."""
        return bitset_mod.mask_to_frozenset(self.sample_quorum_mask(rng), self.universe)

    def sample_quorum_avoiding(
        self,
        rng: np.random.Generator,
        excluded: frozenset,
        *,
        attempts: int = 50,
    ) -> frozenset:
        """Return a quorum avoiding ``excluded`` servers, when one can be found.

        Used by clients as a simple failure detector: once servers are
        observed to be unresponsive, subsequent accesses should steer towards
        quorums that avoid them (this is what turns the combinatorial
        resilience ``f = MT - 1`` into actual protocol availability).  The
        generic implementation resamples the access strategy; constructions
        with structure (e.g. thresholds) override it with a direct choice.
        Falls back to an arbitrary quorum when avoidance fails.
        """
        universe = self.universe
        excluded_mask = bitset_mod.mask_of(
            (server for server in excluded if server in universe), universe
        )
        mask = self.sample_quorum_mask(rng)
        if excluded_mask:
            for _ in range(attempts):
                if not mask & excluded_mask:
                    break
                mask = self.sample_quorum_mask(rng)
        return bitset_mod.mask_to_frozenset(mask, universe)

    # ------------------------------------------------------------------
    # Combinatorial measures (Table 1).
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        """Return ``c(Q)``, the size of the smallest quorum."""
        return self.bitset_engine().min_quorum_size()

    def max_quorum_size(self) -> int:
        """Return the size of the largest quorum."""
        return self.bitset_engine().max_quorum_size()

    def min_intersection_size(self) -> int:
        """Return ``IS(Q)``, the smallest pairwise quorum intersection.

        Computed by vectorised popcount over the bit-packed quorum list
        instead of pairwise frozenset intersections.
        """
        return self.bitset_engine().min_intersection_size()

    def min_transversal_size(self) -> int:
        """Return ``MT(Q)``, the size of the smallest transversal."""
        return transversal_mod.minimal_transversal_mask(self.quorum_masks()).bit_count()

    def minimal_transversal(self) -> frozenset:
        """Return one smallest transversal of the system."""
        return bitset_mod.mask_to_frozenset(
            transversal_mod.minimal_transversal_mask(self.quorum_masks()), self.universe
        )

    def resilience(self) -> int:
        """Return ``f = MT(Q) - 1`` (remark after Definition 3.4)."""
        return self.min_transversal_size() - 1

    def degree(self, element: Hashable) -> int:
        """Return ``deg(element)``, the number of quorums containing it.

        Elements outside the universe belong to no quorum, so their degree
        is 0.
        """
        if element not in self.universe:
            return 0
        position = self.universe.index_of(element)
        return int(self.bitset_engine().degrees()[position])

    def degrees(self) -> dict[Hashable, int]:
        """Return the degree of every universe element (one incidence-column sum)."""
        counts = self.bitset_engine().degrees()
        return {
            element: int(counts[position])
            for position, element in enumerate(self.universe)
        }

    def is_fair(self) -> bool:
        """Return ``True`` when the system is ``(s, d)``-fair (Definition 3.2)."""
        return self.fairness() is not None

    def fairness(self) -> tuple[int, int] | None:
        """Return ``(s, d)`` if the system is ``(s, d)``-fair, else ``None``."""
        engine = self.bitset_engine()
        sizes = engine.quorum_sizes()
        if int(sizes.min()) != int(sizes.max()):
            return None
        degree_values = engine.degrees()
        if int(degree_values.min()) != int(degree_values.max()):
            return None
        return int(sizes[0]), int(degree_values[0])

    # ------------------------------------------------------------------
    # Masking (Definitions 3.4, 3.5; Lemma 3.6; Corollary 3.7).
    # ------------------------------------------------------------------
    def masking_bound(self) -> int:
        """Return the largest ``b`` for which the system is ``b``-masking.

        This is Corollary 3.7 (:func:`~repro.core.masking.largest_b`).  A
        value of ``0`` means the system is an ordinary (regular) quorum
        system that cannot mask any Byzantine failure.
        """
        return largest_b(self.min_intersection_size(), self.min_transversal_size())

    def is_b_masking(self, b: int) -> bool:
        """Return ``True`` when the system is a ``b``-masking quorum system.

        Checks the two sufficient conditions of Lemma 3.6, ``MT(Q) > b``
        first: it settles a too-large ``b`` without computing ``IS``, which
        may need enumeration.
        """
        if b < 0:
            raise InvalidQuorumSystemError(f"masking parameter must be >= 0, got {b}")
        if b == 0:
            return True
        return (
            self.min_transversal_size() > b
            and self.min_intersection_size() >= intersection_count(b)
        )

    # ------------------------------------------------------------------
    # Validation and conversion.
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that the system satisfies Definition 3.1.

        Every quorum must be a non-empty subset of the universe and every
        pair of quorums must intersect.

        Raises
        ------
        InvalidQuorumSystemError
            On the first violated requirement.
        """
        masks = self.quorum_masks()
        if not masks:
            raise InvalidQuorumSystemError("a quorum system must contain at least one quorum")
        if 0 in masks:
            raise InvalidQuorumSystemError("quorums must be non-empty")
        # Pairwise intersection is the expensive half of Definition 3.1; the
        # engine checks it by vectorised popcount.
        if not self.bitset_engine().all_pairs_intersect():
            raise InvalidQuorumSystemError(
                "two quorums do not intersect; this is not a quorum system"
            )

    def to_explicit(self) -> "ExplicitQuorumSystem":
        """Materialise the system as a validated :class:`ExplicitQuorumSystem`."""
        explicit = ExplicitQuorumSystem.from_masks(
            self.universe, self.quorum_masks(), name=self.name
        )
        explicit.validate()
        return explicit

    def element_index_matrix(self) -> np.ndarray:
        """Return the quorum/element incidence matrix as a boolean array.

        Rows are quorums (in enumeration order), columns are universe
        elements (in universe order).  Used by the LP load computation and by
        the Monte-Carlo availability computation.  The matrix is built once
        by the bitmask engine and cached; a writable copy is returned.
        """
        return self.bitset_engine().incidence_matrix().copy()

    # ------------------------------------------------------------------
    # Dunder helpers.
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} n={self.n}>"


class ExplicitQuorumSystem(QuorumSystem):
    """A quorum system given by an explicit collection of quorums.

    Parameters
    ----------
    universe:
        The universe of servers, either a :class:`~repro.core.universe.Universe`
        or any iterable of hashable elements.
    quorums:
        The quorums, as collections of universe elements.  This is where
        caller-supplied labels enter: they are converted once to bitmasks
        over ``universe`` (an element outside it is rejected) and
        deduplicated while preserving first-seen order.
    name:
        Optional human-readable name.
    validate:
        When ``True`` (the default), check Definition 3.1 eagerly.
    """

    def __init__(
        self,
        universe: Universe | Iterable[Hashable],
        quorums: Iterable[Iterable[Hashable]],
        *,
        name: str = "explicit",
        validate: bool = True,
    ):
        if not isinstance(universe, Universe):
            universe = Universe(universe)
        self._universe = universe
        members = universe.as_frozenset()
        seen: dict[int, None] = {}
        for quorum in quorums:
            quorum = frozenset(quorum)
            if not quorum <= members:
                stray = sorted(quorum - members, key=repr)[:3]
                raise InvalidQuorumSystemError(
                    f"quorum contains elements outside the universe: {stray}"
                )
            seen.setdefault(bitset_mod.mask_of(quorum, universe), None)
        self._masks = tuple(seen)
        self.name = name
        if validate:
            self.validate()

    @classmethod
    def from_masks(
        cls, universe: Universe, masks: Iterable[int], *, name: str = "explicit"
    ) -> "ExplicitQuorumSystem":
        """Build the system from ``int`` bitmasks over ``universe``, unvalidated.

        The mask-native constructor derived systems use (a sub-family, a
        sample or a copy of a family that already exists as masks): the masks
        are deduplicated in first-seen order and checked to lie inside the
        universe (:class:`~repro.exceptions.ComputationError` otherwise);
        Definition 3.1 is not checked (call :meth:`validate` for that).
        """
        system = cls.__new__(cls)
        system._universe = universe
        system._masks = tuple(dict.fromkeys(masks))
        # The engine's constructor is the check that no mask has a stray bit.
        system._bitset_engine_cache = BitsetEngine(universe, system._masks)
        system.name = name
        return system

    @property
    def universe(self) -> Universe:
        return self._universe

    def iter_quorum_masks(self) -> Iterator[int]:
        return iter(self._masks)

    def num_quorums(self) -> int:
        return len(self._masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitQuorumSystem):
            return NotImplemented
        return (
            self._universe.as_frozenset() == other._universe.as_frozenset()
            and frozenset(self.quorums(limit=None)) == frozenset(other.quorums(limit=None))
        )

    def __hash__(self) -> int:
        return hash((self._universe.as_frozenset(), frozenset(self.quorums(limit=None))))

    def restricted_to_alive(self, crashed: Iterable[Hashable]) -> "ExplicitQuorumSystem | None":
        """Return the sub-system of quorums untouched by ``crashed`` servers.

        Returns ``None`` when every quorum is hit, i.e. when the crash
        configuration disables the system (the event ``crash(Q)`` of
        Definition 3.10).
        """
        down_mask = bitset_mod.mask_of(
            (element for element in crashed if element in self._universe), self._universe
        )
        alive = [mask for mask in self._masks if not mask & down_mask]
        if not alive:
            return None
        return ExplicitQuorumSystem.from_masks(self._universe, alive, name=f"{self.name}|alive")


class QuorumSystemView(QuorumSystem):
    """A wrapper presenting a ``base`` construction differently — fewer quorums
    listed (:class:`ImplicitQuorumSystem`) or other server labels
    (:class:`~repro.core.membership.ReboundQuorumSystem`) — without changing
    what the system *is*: every label-independent combinatorial parameter is
    the base's own (closed form or guard error included), and ``L(Q)`` /
    ``Fp`` are computed on :func:`unwrap`'s result.
    """

    base: QuorumSystem

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        return self.base.sample_quorum_mask(rng)

    def num_quorums(self) -> int:
        return self.base.num_quorums()

    def min_quorum_size(self) -> int:
        return self.base.min_quorum_size()

    def max_quorum_size(self) -> int:
        return self.base.max_quorum_size()

    def min_intersection_size(self) -> int:
        return self.base.min_intersection_size()

    def min_transversal_size(self) -> int:
        return self.base.min_transversal_size()

    def fairness(self) -> tuple[int, int] | None:
        return self.base.fairness()


def unwrap(system: QuorumSystem) -> QuorumSystem:
    """Peel every :class:`QuorumSystemView` off ``system``, down to the
    construction the measures are computed on."""
    while isinstance(system, QuorumSystemView):
        system = system.base
    return system


class ImplicitQuorumSystem(QuorumSystemView):
    """A lazy, never-enumerated view of a quorum-system construction.

    The paper's large-``n`` statements (load ``Omega(1/sqrt(n))``, the
    load/availability trade-off of Sections 4–8) are about systems whose
    quorum family is astronomically large — M-Grid over a ``100 x 100`` grid
    has ``C(100, 2)^2 ≈ 2.4 * 10^7`` quorums and M-Path vastly more.  This
    wrapper decouples *what the system is* from *which subsets it contains*:

    * every combinatorial parameter (``c``, ``IS``, ``MT``, fairness, masking
      bound) is **delegated to the base construction's closed forms**
      (:class:`QuorumSystemView`), so the true values are reported at any
      ``n``; ``L(Q)`` and ``Fp`` are computed on the base by
      :mod:`repro.core.analytic` and :func:`repro.api.measures.measure`;
    * the quorum list is replaced by a **frozen i.i.d. sample** of
      ``num_samples`` quorums drawn through
      :meth:`QuorumSystem.sample_quorum_mask` (the base construction's
      load-optimal access strategy), materialised lazily on first use;
    * :meth:`quorums` / :meth:`quorum_masks` / :meth:`bitset_engine` expose
      that sample, so the bitmask engine, :class:`~repro.core.strategy.Strategy`
      and both workload engines (:mod:`repro.simulation.engine`,
      :mod:`repro.simulation.events`) accept the system unchanged;
    * exact computations that would treat the sample as the whole family
      (the load LP, strategy validation) check :attr:`is_implicit` and raise
      :class:`~repro.exceptions.ComputationError` unless the *base* family
      fits their enumeration budget.

    Parameters
    ----------
    base:
        The underlying construction.  Its ``sample_quorum_mask`` should
        draw without enumeration and it should provide closed-form measures;
        measures the base cannot answer without enumeration keep the base's
        behaviour (including its guard errors).
    num_samples:
        Size of the frozen sample that stands in for the quorum list.
    seed:
        Seed of the private generator that draws the frozen sample, so a
        given ``(base, num_samples, seed)`` triple always yields the same
        support (runs stay reproducible).

    Examples
    --------
    >>> from repro.constructions.mgrid import MGrid
    >>> big = ImplicitQuorumSystem(MGrid(50, 3), num_samples=128, seed=7)
    >>> big.n                                   # true universe, 2500 servers
    2500
    >>> big.min_quorum_size() == MGrid(50, 3).min_quorum_size()   # closed form
    True
    >>> len(big.quorum_masks()) <= 128          # sampled support (deduplicated)
    True
    """

    enumerates_all_quorums = False
    is_implicit = True

    def __init__(self, base: QuorumSystem, *, num_samples: int = 256, seed: int = 0):
        if isinstance(base, ImplicitQuorumSystem):
            raise ComputationError("refusing to wrap an implicit system in another one")
        if num_samples < 1:
            raise ComputationError(f"num_samples must be >= 1, got {num_samples}")
        self.base = base
        self.num_samples = int(num_samples)
        self.seed = int(seed)
        self.name = f"Implicit({base.name}, m={num_samples})"
        self._sample_counts: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Structure: the universe is real, the family is sampled.
    # ------------------------------------------------------------------
    @property
    def universe(self) -> Universe:
        return self.base.universe

    def _ensure_sample(self) -> dict[int, int]:
        """Draw the frozen support sample once: mask -> multiplicity."""
        if self._sample_counts is None:
            rng = np.random.default_rng(self.seed)
            counts: dict[int, int] = {}
            for _ in range(self.num_samples):
                mask = self.base.sample_quorum_mask(rng)
                counts[mask] = counts.get(mask, 0) + 1
            self._sample_counts = counts
        return self._sample_counts

    def iter_quorum_masks(self) -> Iterator[int]:
        """Yield the *sampled* support masks (deduplicated, first-seen order)."""
        return iter(self._ensure_sample())

    def quorum_masks(self, *, limit: int | None = DEFAULT_ENUMERATION_LIMIT) -> tuple[int, ...]:
        """Return the sampled support masks (NOT the full family; see class docs)."""
        cached = getattr(self, "_quorum_mask_cache", None)
        if cached is None:
            cached = tuple(self._ensure_sample())
            self._quorum_mask_cache = cached
        return cached

    def support_strategy(self) -> "Strategy":
        """Return the empirical access strategy over the frozen sample.

        Each sampled mask is weighted by its multiplicity, so the strategy
        is the empirical (plug-in) estimate of the base construction's
        access strategy; its induced load converges to the construction's
        ``L(Q)`` as ``num_samples`` grows.  The strategy keeps the sampled
        masks, so no frozenset is built on the hot path.
        """
        from repro.core.strategy import Strategy  # local: strategy imports this module

        counts = self._ensure_sample()
        return Strategy.from_masks(
            self.universe, tuple(counts), tuple(counts.values()), normalise=True
        )

    def sampled_optimal_strategy(self) -> "Strategy":
        """Return the load-LP-optimal strategy *over the frozen sample*.

        The plain :meth:`support_strategy` inherits the sampling noise of the
        i.i.d. draw — the busiest server of an empirical strategy sits a few
        standard deviations above ``L(Q)``.  Solving the load LP restricted
        to the sampled sub-family rebalances the weights (dropping redundant
        quorums, evening out row/column collisions), so the induced load
        converges to ``L(Q)`` much faster in ``num_samples``.  The value is
        an upper bound on the true ``L(Q)`` (the LP optimises over fewer
        quorums), and the strategy is supported on genuine quorums, so the
        workload engines can run it at any scale the sample fits.
        """
        cached = getattr(self, "_sampled_optimal_cache", None)
        if cached is None:
            from repro.core import load as load_mod  # local: load imports this module

            sampled = ExplicitQuorumSystem.from_masks(
                self.universe, self.quorum_masks(), name=f"{self.name}|sample"
            )
            cached = load_mod.exact_load(sampled, quorum_limit=None).strategy
            self._sampled_optimal_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Sampling: fresh draws always come from the base construction.
    # ------------------------------------------------------------------
    def sample_quorum_avoiding(
        self,
        rng: np.random.Generator,
        excluded: frozenset,
        *,
        attempts: int = 50,
    ) -> frozenset:
        return self.base.sample_quorum_avoiding(rng, excluded, attempts=attempts)

    # ------------------------------------------------------------------
    # Label-dependent parameters: the universe is the base's own, so these
    # delegate too.  A base without a closed form keeps its own behaviour,
    # including enumeration guards — nothing here computes over the sample.
    # ------------------------------------------------------------------
    def minimal_transversal(self) -> frozenset:
        return self.base.minimal_transversal()

    def degree(self, element: Hashable) -> int:
        return self.base.degree(element)

    def degrees(self) -> dict[Hashable, int]:
        return self.base.degrees()

    def validate(self) -> None:
        """Spot-check Definition 3.1 on the sampled support only.

        The full pairwise-intersection check is exactly what an implicit
        system exists to avoid; validating the sample catches construction
        bugs (a sampler emitting non-intersecting sets) without enumeration.
        """
        engine = self.bitset_engine()
        if engine.num_quorums == 0:
            raise InvalidQuorumSystemError("implicit system produced an empty sample")
        if not engine.all_pairs_intersect():
            raise InvalidQuorumSystemError(
                f"two sampled quorums of {self.name} do not intersect; "
                "the base construction's sampler is broken"
            )

    def __repr__(self) -> str:
        return (
            f"<ImplicitQuorumSystem base={self.base.name!r} n={self.n} "
            f"num_samples={self.num_samples}>"
        )
