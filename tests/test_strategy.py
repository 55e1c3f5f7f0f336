"""Unit tests for access strategies (Definition 3.8, first half)."""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BoostedFPP,
    ExplicitQuorumSystem,
    MGrid,
    Strategy,
    StrategyError,
    Universe,
    exact_load,
)
from repro.core import bitset
from repro.core.bitset import mask_to_frozenset


class TestConstruction:
    def test_valid_distribution(self):
        strategy = Strategy({frozenset({0, 1}): 0.25, frozenset({1, 2}): 0.75})
        assert strategy.probability({0, 1}) == pytest.approx(0.25)
        assert strategy.probability({1, 2}) == pytest.approx(0.75)

    def test_unsupported_quorum_has_zero_probability(self):
        strategy = Strategy({frozenset({0, 1}): 1.0})
        assert strategy.probability({7, 8}) == 0.0

    def test_rejects_negative_probability(self):
        with pytest.raises(StrategyError):
            Strategy({frozenset({0}): -0.2, frozenset({1}): 1.2})

    def test_rejects_non_normalised_without_flag(self):
        with pytest.raises(StrategyError):
            Strategy({frozenset({0, 1}): 0.3})

    def test_normalise_flag_rescales(self):
        strategy = Strategy({frozenset({0}): 2.0, frozenset({0, 1}): 2.0}, normalise=True)
        assert strategy.probability({0}) == pytest.approx(0.5)

    def test_zero_weights_are_dropped(self):
        strategy = Strategy({frozenset({0}): 1.0, frozenset({1}): 0.0})
        assert len(strategy) == 1

    def test_empty_strategy_rejected(self):
        with pytest.raises(StrategyError):
            Strategy({})

    def test_duplicate_quorums_accumulate(self):
        # Two distinct keys that normalise to the same frozenset accumulate.
        strategy = Strategy({(0, 1): 0.5, (1, 0): 0.5})
        assert strategy.probability({0, 1}) == pytest.approx(1.0)


class TestUniform:
    def test_uniform_over_quorums(self):
        strategy = Strategy.uniform([{0, 1}, {1, 2}, {2, 0}])
        assert all(p == pytest.approx(1 / 3) for _, p in strategy.items())

    def test_uniform_over_system(self, simple_system):
        strategy = Strategy.uniform_over_system(simple_system)
        assert len(strategy) == simple_system.num_quorums()

    def test_uniform_over_nothing_rejected(self):
        with pytest.raises(StrategyError):
            Strategy.uniform([])


class TestInducedLoad:
    def test_induced_loads_definition(self):
        universe = Universe.of_size(3)
        strategy = Strategy({frozenset({0, 1}): 0.5, frozenset({1, 2}): 0.5})
        loads = strategy.induced_loads(universe)
        assert loads[0] == pytest.approx(0.5)
        assert loads[1] == pytest.approx(1.0)
        assert loads[2] == pytest.approx(0.5)
        assert strategy.induced_system_load(universe) == pytest.approx(1.0)

    def test_induced_load_of_uniform_majority(self, majority_5):
        strategy = Strategy.uniform_over_system(majority_5)
        # Fair system: every server carries load c/n = 3/5.
        loads = strategy.induced_loads(majority_5.universe)
        assert all(value == pytest.approx(0.6) for value in loads.values())

    def test_total_induced_load_equals_expected_quorum_size(self, simple_system):
        strategy = Strategy.uniform_over_system(simple_system)
        loads = strategy.induced_loads(simple_system.universe)
        expected_size = sum(
            len(quorum) * probability for quorum, probability in strategy.items()
        )
        assert sum(loads.values()) == pytest.approx(expected_size)


class TestValidationAndSampling:
    def test_validate_against_accepts_real_quorums(self, simple_system):
        Strategy.uniform_over_system(simple_system).validate_against(simple_system)

    def test_validate_against_rejects_foreign_sets(self, simple_system):
        strategy = Strategy({frozenset({0, 4}): 1.0})
        with pytest.raises(StrategyError):
            strategy.validate_against(simple_system)

    def test_from_vector(self, simple_system):
        vector = np.array([1.0, 0.0, 1.0])
        strategy = Strategy.from_vector(simple_system, vector)
        assert len(strategy) == 2
        assert strategy.probability(simple_system.quorums()[0]) == pytest.approx(0.5)

    def test_from_vector_wrong_length_rejected(self, simple_system):
        with pytest.raises(StrategyError):
            Strategy.from_vector(simple_system, np.array([1.0]))

    def test_sampling_follows_support(self, simple_system, rng):
        strategy = Strategy({simple_system.quorums()[0]: 1.0})
        for _ in range(5):
            assert strategy.sample(rng) == simple_system.quorums()[0]

    def test_sampling_respects_probabilities(self, rng):
        heavy = frozenset({0})
        light = frozenset({0, 1})
        strategy = Strategy({heavy: 0.9, light: 0.1})
        draws = [strategy.sample(rng) for _ in range(300)]
        assert draws.count(heavy) > draws.count(light)


class TestToleranceReconciliation:
    def test_sum_check_uses_the_declared_tolerance(self):
        # 1 + 5e-7 used to slip through the hard-coded 1e-6 slack even though
        # the module declares a 1e-9 tolerance; the checks now agree.
        with pytest.raises(StrategyError):
            Strategy({frozenset({0}): 1.0 + 5e-7})

    def test_float_noise_within_tolerance_accepted(self):
        thirds = {frozenset({i}): 1.0 / 3.0 for i in range(3)}
        Strategy(thirds)


class TestInducedLoadMismatch:
    def test_quorum_element_outside_universe_raises(self):
        universe = Universe.of_size(2)
        strategy = Strategy({frozenset({0, 5}): 1.0})
        with pytest.raises(StrategyError):
            strategy.induced_loads(universe)

    def test_matching_universe_still_works(self):
        universe = Universe.of_size(3)
        strategy = Strategy({frozenset({0, 1}): 1.0})
        assert strategy.induced_system_load(universe) == pytest.approx(1.0)


class TestFromVectorNormalisation:
    def test_normalises_before_dropping_nonpositive_entries(self, simple_system):
        # The truncated entries are scaled away with the rest of the vector,
        # so the surviving quorums keep their relative weights 2:1.
        vector = np.array([2.0, 1.0, 0.0])
        strategy = Strategy.from_vector(simple_system, vector)
        assert strategy.probability(simple_system.quorums()[0]) == pytest.approx(2 / 3)
        assert strategy.probability(simple_system.quorums()[1]) == pytest.approx(1 / 3)
        assert strategy.probability(simple_system.quorums()[2]) == 0.0

    def test_non_positive_total_rejected(self, simple_system):
        with pytest.raises(StrategyError):
            Strategy.from_vector(simple_system, np.zeros(3))

    def test_meaningful_negative_mass_rejected(self, simple_system):
        # Pre-fix, the negative entry was silently dropped and its mass
        # redistributed over the surviving quorums; it is now an error.
        with pytest.raises(StrategyError):
            Strategy.from_vector(simple_system, np.array([2.0, 1.0, -1.0]))


def singletons(weights) -> Strategy:
    """A strategy over the quorums ``{0}, {1}, ...`` with these (rescaled) weights."""
    return Strategy({frozenset({i}): weight for i, weight in enumerate(weights)}, normalise=True)


@cache
def sampling_strategies() -> dict[str, Strategy]:
    """The strategies the guide-table inversion is held to the binary search on."""
    mgrid = MGrid(7, 3)
    return {
        "three-equal": singletons([1.0, 1.0, 1.0]),
        # Weights spanning twelve decades: buckets holding many boundaries.
        "random-weights": singletons(10.0 ** np.random.default_rng(3).uniform(-12, 0, 700)),
        "single-quorum": singletons([1.0]),
        # Every boundary but one inside the last bucket: the fallback search.
        "one-heavy-many-tiny": singletons([1 - 1e-9] + [1e-9 / 300] * 300),
        "mgrid-uniform": Strategy.uniform_over_system(mgrid),
        "mgrid-lp": exact_load(mgrid).strategy,
    }


def reference_indices(strategy: Strategy, draws: np.ndarray) -> np.ndarray:
    """The binary-search inversion of ``draws`` (what ``sample_index`` computes)."""
    cumulative = np.cumsum(strategy.probabilities)
    indices = np.searchsorted(cumulative, draws * cumulative[-1], side="right")
    return np.minimum(indices, len(cumulative) - 1)


class ScriptedDraws:
    """A generator stand-in whose ``random(size, out=)`` hands out given draws in order."""

    def __init__(self, draws: np.ndarray):
        self._draws = np.asarray(draws, dtype=float)
        self._used = 0

    def random(self, size: int | tuple[int, ...] | None = None, out=None) -> np.ndarray:
        if out is None:
            out = np.empty(size)
        out.reshape(-1)[...] = self._draws[self._used : self._used + out.size]
        self._used += out.size
        return out


def crafted_draws(strategy: Strategy) -> np.ndarray:
    """Draws on every boundary the inversion can get wrong, with their 1-ulp neighbours.

    ``0``, the largest draw below ``1``, every ``cumulative[j] / total`` and
    every bucket edge ``k / K`` of every power-of-two table up to ``4m``.
    """
    cumulative = np.cumsum(strategy.probabilities)
    tables = [1 << power for power in range((4 * len(strategy)).bit_length() + 1)]
    centres = np.concatenate(
        [cumulative / cumulative[-1]] + [np.arange(size) / size for size in tables]
    )
    neighbours = [np.nextafter(centres, 0.0), np.nextafter(centres, 1.0)]
    draws = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], centres, *neighbours])
    return draws[(draws >= 0.0) & (draws < 1.0)]


class TestVectorisedSampling:
    @pytest.mark.parametrize("name", sorted(sampling_strategies()))
    def test_sample_many_matches_sequential_sample_stream(self, name):
        strategy = sampling_strategies()[name]
        batched = strategy.sample_many(np.random.default_rng(42), 3000)
        rng = np.random.default_rng(42)
        sequential = np.array([strategy.sample_index(rng) for _ in range(3000)])
        assert np.array_equal(batched, sequential)

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(sampling_strategies())),
        seed=st.integers(0, 2**32 - 1),
        size=st.one_of(
            st.sampled_from([2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 5]),
            st.integers(0, 3 * 2**18 + 5),
            st.tuples(st.integers(1, 2**17), st.integers(1, 6)),
        ),
    )
    def test_sample_many_equals_the_binary_search(self, name, seed, size):
        """Draw for draw, over batches spanning several chunks of the inversion."""
        strategy = sampling_strategies()[name]
        indices = strategy.sample_many(np.random.default_rng(seed), size)
        draws = np.random.default_rng(seed).random(size)
        assert indices.dtype == np.int64
        assert np.array_equal(indices, reference_indices(strategy, draws))

    @settings(max_examples=20, deadline=None)
    @given(
        name=st.sampled_from(sorted(sampling_strategies())),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 3 * 2**16),
        columns=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
    )
    def test_full_rows_match_the_plain_call(self, name, seed, rows, columns, density):
        """Column 0 of every row and the rest of the full rows, on the same stream."""
        strategy = sampling_strategies()[name]
        (full_rows,) = (np.random.default_rng(seed + 1).random(rows) < density).nonzero()
        rng = np.random.default_rng(seed)
        first, rest = strategy.sample_many(rng, (rows, columns), full_rows=full_rows)
        reference = np.random.default_rng(seed)
        indices = strategy.sample_many(reference, (rows, columns))
        assert np.array_equal(first, indices[:, 0])
        assert np.array_equal(rest, indices[full_rows, 1:])
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("name", sorted(sampling_strategies()))
    def test_sample_many_is_exact_on_crafted_draws(self, name):
        """Boundaries and bucket edges, repeated past two chunks of the inversion."""
        strategy = sampling_strategies()[name]
        draws = np.resize(crafted_draws(strategy), 2 * 2**18 + 11)
        indices = strategy.sample_many(ScriptedDraws(draws), draws.size)
        assert np.array_equal(indices, reference_indices(strategy, draws))

    def test_sample_many_shape_and_range(self, simple_system):
        strategy = Strategy.uniform_over_system(simple_system)
        indices = strategy.sample_many(np.random.default_rng(0), (20, 4))
        assert indices.shape == (20, 4)
        assert indices.min() >= 0
        assert indices.max() < len(strategy)

    def test_sample_many_follows_probabilities(self):
        strategy = Strategy({frozenset({0}): 0.9, frozenset({1}): 0.1})
        indices = strategy.sample_many(np.random.default_rng(1), 2000)
        heavy_index = strategy.support.index(frozenset({0}))
        assert np.count_nonzero(indices == heavy_index) > 1500

    def test_support_masks_and_engine_are_cached(self, simple_system):
        strategy = Strategy.uniform_over_system(simple_system)
        universe = simple_system.universe
        assert strategy.support_masks(universe) is strategy.support_masks(universe)
        engine = strategy.support_engine(universe)
        assert engine is strategy.support_engine(universe)
        assert engine.num_quorums == len(strategy)
        assert (
            tuple(mask_to_frozenset(mask, universe) for mask in engine.masks)
            == strategy.support
        )


class TestMaskNativeStrategy:
    """A ``from_masks`` strategy keeps its masks; the frozenset view is built on first read."""

    UNIVERSE = Universe.of_size(6)
    #: Duplicate masks (merged), a zero weight (dropped) and unequal weights.
    MASKS = (0b000111, 0b011100, 0b000111, 0b110001, 0b101010)
    WEIGHTS = (0.1, 0.3, 0.2, 0.0, 0.4)

    @pytest.fixture
    def frozenset_builds(self, monkeypatch):
        """Count the calls of ``bitset.frozensets_of``, the one frozenset-view builder."""
        calls = []
        real = bitset.frozensets_of

        def counting(masks, universe):
            calls.append(len(masks))
            return real(masks, universe)

        monkeypatch.setattr(bitset, "frozensets_of", counting)
        return calls

    def build(self, normalise: bool) -> tuple[Strategy, Strategy]:
        """The mask-built strategy and the same distribution built from frozensets."""
        weights = self.WEIGHTS if not normalise else tuple(2.0 * w for w in self.WEIGHTS)
        lazy = Strategy.from_masks(self.UNIVERSE, self.MASKS, weights, normalise=normalise)
        eager = Strategy(
            {
                mask_to_frozenset(mask, self.UNIVERSE): weight
                for mask, weight in merged_weights(self.MASKS, weights).items()
            },
            normalise=normalise,
        )
        return lazy, eager

    def test_constructors_sampling_and_engine_views_build_no_frozenset(
        self, frozenset_builds, simple_system
    ):
        strategies = [
            (Strategy.from_masks(self.UNIVERSE, self.MASKS, self.WEIGHTS), self.UNIVERSE),
            (Strategy.from_vector(simple_system, np.array([1.0, 0.0, 3.0])), simple_system.universe),
            (Strategy.uniform_over_system(simple_system), simple_system.universe),
        ]
        for strategy, universe in strategies:
            strategy.sample_index(np.random.default_rng(0))
            strategy.sample_many(np.random.default_rng(0), (4, 3))
            assert strategy.probabilities.sum() == pytest.approx(1.0)
            assert strategy.support_engine(universe).masks == strategy.support_masks(universe)
            assert len(strategy) == strategy.support_engine(universe).num_quorums
            repr(strategy)
        result = exact_load(BoostedFPP(3, 1))
        assert result.method == "fair" and len(result.strategy) == 8125
        assert frozenset_builds == []

    @pytest.mark.parametrize("normalise", [True, False])
    @pytest.mark.parametrize(
        "read",
        [
            lambda s, system: s.support,
            lambda s, system: list(s.items()),
            lambda s, system: [s.probability(q) for q in system.quorums()],
            lambda s, system: s.induced_loads(system.universe),
            lambda s, system: (lambda r: (r.support, r.probabilities.tolist()))(
                s.restricted_to(range(5))
            ),
            lambda s, system: [s.sample(np.random.default_rng(3)) for _ in range(4)],
            lambda s, system: s.support_masks(Universe(range(5, -1, -1))),
        ],
        ids=["support", "items", "probability", "induced_loads", "restricted_to", "sample",
             "foreign_universe_masks"],
    )
    def test_first_read_of_each_view_equals_the_eager_strategy(
        self, frozenset_builds, read, normalise
    ):
        system = ExplicitQuorumSystem.from_masks(self.UNIVERSE, sorted(set(self.MASKS)))
        lazy, eager = self.build(normalise)
        assert frozenset_builds == []
        first = read(lazy, system)
        assert frozenset_builds == [3]  # one build over the merged, positive support
        assert first == read(eager, system)
        assert read(lazy, system) == first and frozenset_builds == [3]
        assert lazy.probabilities.tolist() == eager.probabilities.tolist()
        assert lazy.support == eager.support

    def test_validate_against_reads_the_view(self, frozenset_builds, simple_system):
        strategy = Strategy.uniform_over_system(simple_system)
        strategy.validate_against(simple_system)
        assert frozenset_builds == [simple_system.num_quorums()]
        foreign = Strategy.from_masks(simple_system.universe, (0b10001,))
        with pytest.raises(StrategyError, match=r"\{0, 4\}, which is not a quorum"):
            foreign.validate_against(simple_system)

    def test_error_messages(self):
        universe = Universe.of_size(4)
        with pytest.raises(
            StrategyError, match=r"^negative probability -1\.0 for quorum \{0, 1, 2\}$"
        ):
            Strategy.from_masks(universe, (0b0111,), (-1.0,))
        with pytest.raises(
            StrategyError,
            match=r"^mask 0b10011 is not a non-empty subset of the 4-element universe$",
        ):
            Strategy.from_masks(universe, (0b10011, 0b0011))
        with pytest.raises(
            StrategyError, match=r"^mask 0b0 is not a non-empty subset of the 4-element universe$"
        ):
            Strategy.from_masks(universe, (0, 0b0011), (0.0, 1.0))
        with pytest.raises(StrategyError, match=r"^2 masks but 1 weights$"):
            Strategy.from_masks(universe, (0b0111, 0b1110), (1.0,))
        with pytest.raises(StrategyError, match=r"^strategy probabilities sum to 0\.6, expected 1$"):
            Strategy.from_masks(universe, (0b0111, 0b1110), (0.3, 0.3), normalise=False)
        with pytest.raises(StrategyError, match="positive probability to some quorum"):
            Strategy.from_masks(universe, (0b0111,), (0.0,))


def merged_weights(masks, weights) -> dict[int, float]:
    """Sum the weights of repeated masks, first-seen order."""
    merged: dict[int, float] = {}
    for mask, weight in zip(masks, weights):
        merged[mask] = merged.get(mask, 0.0) + weight
    return merged
