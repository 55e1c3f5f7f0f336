"""The implicit construction layer: sample_quorum_mask + ImplicitQuorumSystem.

Covers the labelled sampler being a view of the mask sampler (same draws,
same quorum, same iteration order), the implicit system's delegation contract (true measures, sampled
family), the strategy plumbing (Strategy.from_masks, support_strategy,
sampled_optimal_strategy), the exact-LP budget guard, and both workload
engines accepting implicit deployments.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import (
    BoostedFPP,
    CrumblingWall,
    ExplicitQuorumSystem,
    FiniteProjectivePlane,
    ImplicitQuorumSystem,
    MGrid,
    MPath,
    MaskingGrid,
    RecursiveThreshold,
    RegularGrid,
    Strategy,
    TreeQuorumSystem,
    Universe,
    WheelQuorumSystem,
    analytic_failure_probability,
    analytic_load,
    compose,
    exact_load,
    majority,
    masking_report,
    masking_threshold,
)
from repro.api import Budget, available_constructions, build, measure
from repro.core import ReboundQuorumSystem, bitset
from repro.exceptions import ComputationError, StrategyError
from repro.simulation import FaultScenario, run_event_workload, run_workload
from repro.simulation.engine import resolve_strategy

SAMPLED_CONSTRUCTIONS = [
    masking_threshold(13, 3),
    RegularGrid(4),
    MaskingGrid(5, 1),
    MGrid(5, 1),
    MPath(4, 1),
    CrumblingWall([3, 2, 2]),
    RecursiveThreshold(4, 3, 2),
]


#: One small instance of every registry construction, plus a composition
#: and a relabelled epoch view.
_REGISTRY_INSTANCES = {
    "threshold": {"n": 13, "b": 3},
    "majority": {"n": 9},
    "grid": {"side": 5},
    "masking-grid": {"side": 7, "b": 1},
    "mgrid": {"side": 7, "b": 3},
    "mpath": {"side": 4, "b": 1},
    "rt": {"depth": 2},
    "boostfpp": {"q": 3, "b": 1},
    "fpp": {"q": 3},
    "crumbling-wall": {"rows": [3, 2, 2]},
    "tree": {"depth": 2},
    "wheel": {"n": 8},
}
EVERY_CONSTRUCTION = [build(name, **params) for name, params in _REGISTRY_INSTANCES.items()] + [
    MGrid(5, 1),
    compose(RegularGrid(2), majority(3)),
    ReboundQuorumSystem(MGrid(4, 1), Universe(range(100, 116)), epoch_index=2),
]


class TestSampleQuorumMaskProtocol:
    def test_every_registry_construction_is_covered(self):
        assert set(_REGISTRY_INSTANCES) == set(available_constructions())

    @pytest.mark.parametrize(
        "system", EVERY_CONSTRUCTION, ids=lambda system: system.name
    )
    def test_stream_compatible_with_frozenset_sampler(self, system):
        # Same seed, same draws: the labelled sampler is the mask sampler's
        # draw converted — same quorum, same iteration order (the event
        # engine assigns latency draws in that order), same stream position.
        mask_rng = np.random.default_rng(11)
        set_rng = np.random.default_rng(11)
        for _ in range(8):
            mask = system.sample_quorum_mask(mask_rng)
            quorum = system.sample_quorum(set_rng)
            assert mask == bitset.mask_of(quorum, system.universe)
            assert list(quorum) == list(bitset.mask_to_frozenset(mask, system.universe))
        assert mask_rng.bit_generator.state == set_rng.bit_generator.state

    @pytest.mark.parametrize(
        "system", SAMPLED_CONSTRUCTIONS, ids=lambda system: system.name
    )
    def test_sampled_masks_are_quorums(self, system):
        family = set(system.iter_quorum_masks())
        rng = np.random.default_rng(5)
        for _ in range(8):
            assert system.sample_quorum_mask(rng) in family

    def test_generic_default_converts_sample_quorum(self):
        explicit = ExplicitQuorumSystem(range(4), [{0, 1, 2}, {1, 2, 3}])
        rng = np.random.default_rng(0)
        masks = {explicit.sample_quorum_mask(rng) for _ in range(20)}
        assert masks <= set(explicit.iter_quorum_masks())


ENUMERABLE_CONSTRUCTIONS = [
    system for system in EVERY_CONSTRUCTION if system.enumerates_all_quorums
]


@pytest.mark.parametrize(
    "system", ENUMERABLE_CONSTRUCTIONS, ids=lambda system: system.name
)
class TestMaskNativeCore:
    def test_no_labelled_family_is_materialised(self, system):
        # Measures, strategies and derived systems read quorum_masks(); the
        # labelled view exists only once a caller asks for quorums().
        vars(system).pop("_quorum_cache", None)
        explicit = system.to_explicit()
        exact_load(system)
        resolve_strategy(system, None).support_engine(system.universe)
        explicit.min_transversal_size()
        explicit.min_quorum_size()
        masking_report(explicit, 0)
        assert not hasattr(system, "_quorum_cache")
        assert not hasattr(explicit, "_quorum_cache")

    def test_strategy_support_is_aligned_with_quorum_masks(self, system):
        # The order the vectorised engine's index draws rely on.
        universe = system.universe
        masks = system.quorum_masks()
        uniform = Strategy.uniform_over_system(system)
        assert uniform.support_masks(universe) == masks
        optimal = exact_load(system).strategy
        assert optimal.support_masks(universe) == tuple(
            mask
            for mask in masks
            if optimal.probability(bitset.mask_to_frozenset(mask, universe)) > 0.0
        )
        for strategy in (uniform, optimal):
            assert strategy.support == tuple(
                bitset.mask_to_frozenset(mask, universe)
                for mask in strategy.support_masks(universe)
            )


def _sorted(quorum):
    return tuple(sorted(quorum))


#: system -> (first five ``sample_quorum`` values under ``default_rng(7)``,
#: the ``quorums()`` order — or its sha256 when the family is long), as
#: recorded at PR 15.
_RECORDED = [
    (
        TreeQuorumSystem(2),
        [(0, 2, 5), (0, 2, 6), (0, 1, 3), (0, 1, 4), (1, 4, 5, 6)],
        [(0, 1, 3), (0, 1, 4), (0, 3, 4), (0, 2, 5), (0, 2, 6), (0, 5, 6), (1, 2, 3, 5),
         (1, 2, 3, 6), (1, 3, 5, 6), (1, 2, 4, 5), (1, 2, 4, 6), (1, 4, 5, 6), (2, 3, 4, 5),
         (2, 3, 4, 6), (3, 4, 5, 6)],
    ),
    (
        WheelQuorumSystem(5),
        [(0, 3), (0, 4), (0, 1), (0, 2), (1, 2, 3, 4)],
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2, 3, 4)],
    ),
    (
        FiniteProjectivePlane(2),
        [(0, 2, 4), (0, 1, 6), (0, 1, 6), (0, 2, 4), (0, 1, 6)],
        [(4, 5, 6), (1, 3, 4), (2, 3, 6), (1, 2, 5), (0, 1, 6), (0, 3, 5), (0, 2, 4)],
    ),
    (
        CrumblingWall([3, 2, 2]),
        [((2, 0), (2, 1)), ((1, 0), (1, 1), (2, 1)), ((2, 0), (2, 1)),
         ((1, 0), (1, 1), (2, 1)), ((2, 0), (2, 1))],
        [((0, 0), (0, 1), (0, 2), (1, 0), (2, 0)), ((0, 0), (0, 1), (0, 2), (1, 0), (2, 1)),
         ((0, 0), (0, 1), (0, 2), (1, 1), (2, 0)), ((0, 0), (0, 1), (0, 2), (1, 1), (2, 1)),
         ((1, 0), (1, 1), (2, 0)), ((1, 0), (1, 1), (2, 1)), ((2, 0), (2, 1))],
    ),
    (
        BoostedFPP(2, 1),
        [((0, 1), (0, 2), (0, 3), (0, 4), (2, 0), (2, 1), (2, 2), (2, 4), (4, 0), (4, 1),
          (4, 3), (4, 4)),
         ((2, 0), (2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (6, 1), (6, 2),
          (6, 3), (6, 4)),
         ((0, 0), (0, 1), (0, 2), (0, 3), (2, 1), (2, 2), (2, 3), (2, 4), (4, 0), (4, 1),
          (4, 3), (4, 4)),
         ((4, 0), (4, 2), (4, 3), (4, 4), (5, 0), (5, 2), (5, 3), (5, 4), (6, 0), (6, 2),
          (6, 3), (6, 4)),
         ((0, 0), (0, 1), (0, 2), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4), (6, 0), (6, 1),
          (6, 3), (6, 4))],
        "39a91cdf1e8f1739fefd1006dd4fd2a6a248e22521116ffce94de2467f799c01",
    ),
    (
        compose(majority(3), RegularGrid(2)),
        [((1, (0, 1)), (1, (1, 0)), (1, (1, 1)), (2, (0, 1)), (2, (1, 0)), (2, (1, 1))),
         ((0, (0, 0)), (0, (0, 1)), (0, (1, 1)), (2, (0, 0)), (2, (1, 0)), (2, (1, 1))),
         ((0, (0, 0)), (0, (1, 0)), (0, (1, 1)), (2, (0, 0)), (2, (0, 1)), (2, (1, 1))),
         ((0, (0, 0)), (0, (1, 0)), (0, (1, 1)), (1, (0, 0)), (1, (1, 0)), (1, (1, 1))),
         ((0, (0, 1)), (0, (1, 0)), (0, (1, 1)), (1, (0, 1)), (1, (1, 0)), (1, (1, 1)))],
        "e14ae1501a5071c200628ac47d7b785e3a789e29334cbd9913bf7563da517c76",
    ),
]


class TestRestatedSamplersAndEnumerators:
    @pytest.mark.parametrize(
        "system, samples, family", _RECORDED, ids=lambda value: getattr(value, "name", "")
    )
    def test_recorded_draws_and_enumeration_order(self, system, samples, family):
        rng = np.random.default_rng(7)
        assert [_sorted(system.sample_quorum(rng)) for _ in range(5)] == samples
        enumerated = [_sorted(quorum) for quorum in system.quorums()]
        if isinstance(family, str):
            enumerated = hashlib.sha256(repr(enumerated).encode()).hexdigest()
        assert enumerated == family

    def test_tuple_labelled_outer_follows_the_product_strategy(self):
        # Copies are visited in universe-index order (not frozenset-iteration
        # order), so only the distribution is pinned: each of the 4 grid
        # copies is used w.p. 3/4 and each majority member of a used copy
        # w.p. 2/3.
        system = compose(RegularGrid(2), majority(3))
        family = set(system.quorums())
        rng = np.random.default_rng(7)
        draws = [system.sample_quorum(rng) for _ in range(4000)]
        assert family.issuperset(draws)
        for copy in system.outer.universe:
            used = sum(any(server[0] == copy for server in quorum) for quorum in draws)
            assert used / len(draws) == pytest.approx(0.75, abs=0.03)
        for server in system.universe:
            hits = sum(server in quorum for quorum in draws)
            assert hits / len(draws) == pytest.approx(0.5, abs=0.03)


class TestImplicitQuorumSystem:
    def test_measures_delegate_to_closed_forms(self):
        base = MGrid(20, 3)  # 36k quorums; measures come from closed forms, not enumeration
        implicit = ImplicitQuorumSystem(base, num_samples=32, seed=1)
        assert implicit.n == base.n == 400
        assert implicit.min_quorum_size() == base.min_quorum_size()
        assert implicit.min_intersection_size() == base.min_intersection_size()
        assert implicit.min_transversal_size() == base.min_transversal_size()
        assert implicit.masking_bound() == base.masking_bound()
        assert implicit.fairness() == base.fairness()
        assert implicit.num_quorums() == base.num_quorums()
        assert analytic_load(implicit).load == measure(implicit, "load").value == base.load()
        assert implicit.is_implicit and not base.is_implicit

    def test_sampled_family_is_frozen_and_seed_deterministic(self):
        base = MGrid(16, 1)
        first = ImplicitQuorumSystem(base, num_samples=64, seed=9)
        second = ImplicitQuorumSystem(base, num_samples=64, seed=9)
        assert first.quorum_masks() == second.quorum_masks()
        assert len(first.quorum_masks()) <= 64
        # frozenset view is derived from the same sample
        assert [bitset.mask_of(q, base.universe) for q in first.quorums()] == list(
            first.quorum_masks()
        )
        different = ImplicitQuorumSystem(base, num_samples=64, seed=10)
        assert different.quorum_masks() != first.quorum_masks()

    def test_sample_is_made_of_genuine_quorums(self):
        base = MGrid(6, 1)
        implicit = ImplicitQuorumSystem(base, num_samples=48, seed=2)
        family = set(base.iter_quorum_masks())
        assert set(implicit.quorum_masks()) <= family
        implicit.validate()  # spot check must pass for a correct sampler

    def test_rejects_nested_wrap_and_bad_sample_count(self):
        base = RegularGrid(4)
        implicit = ImplicitQuorumSystem(base, num_samples=8)
        with pytest.raises(ComputationError):
            ImplicitQuorumSystem(implicit)
        with pytest.raises(ComputationError):
            ImplicitQuorumSystem(base, num_samples=0)

    def test_support_strategy_is_multiplicity_weighted(self):
        base = RegularGrid(3)  # 9 quorums; 64 samples guarantee collisions
        implicit = ImplicitQuorumSystem(base, num_samples=64, seed=4)
        strategy = implicit.support_strategy()
        assert sum(weight for _, weight in strategy.items()) == pytest.approx(1.0)
        counts = {}
        rng = np.random.default_rng(4)
        for _ in range(64):
            mask = base.sample_quorum_mask(rng)
            counts[mask] = counts.get(mask, 0) + 1
        for quorum, weight in strategy.items():
            mask = bitset.mask_of(quorum, base.universe)
            assert weight == pytest.approx(counts[mask] / 64)

    def test_sampled_optimal_strategy_rebalances(self):
        base = MGrid(8, 1)  # enumerable: C(8,2)^2 = 784 quorums
        implicit = ImplicitQuorumSystem(base, num_samples=256, seed=6)
        uniform_load = implicit.support_strategy().induced_system_load(base.universe)
        optimal = implicit.sampled_optimal_strategy()
        lp_load = optimal.induced_system_load(base.universe)
        # The LP can only improve on the empirical weights, and can never
        # beat the true L(Q) (it optimises over a sub-family).
        assert lp_load <= uniform_load + 1e-9
        assert lp_load >= exact_load(base).load - 1e-9
        # Cached: same object on repeat calls.
        assert implicit.sampled_optimal_strategy() is optimal

    def test_exact_load_budget_guard(self):
        big = ImplicitQuorumSystem(MGrid(30, 3), num_samples=16, seed=0)  # C(30,2)^2 = 189,225 quorums
        with pytest.raises(ComputationError, match="exceeds the exact-LP enumeration"):
            exact_load(big, quorum_limit=50_000)
        # A small base family is delegated to the real LP instead.
        small = ImplicitQuorumSystem(MGrid(8, 1), num_samples=16, seed=0)
        assert exact_load(small).load == pytest.approx(exact_load(MGrid(8, 1)).load)
        # quorum_limit=None lifts the budget (no TypeError) and delegates;
        # a base that cannot enumerate still raises its own clear guard.
        assert exact_load(small, quorum_limit=None).load == pytest.approx(
            exact_load(MGrid(8, 1)).load
        )
        unbounded = ImplicitQuorumSystem(MPath(12, 3), num_samples=4, seed=0)
        with pytest.raises(ComputationError, match="cannot enumerate"):
            exact_load(unbounded, quorum_limit=None)

    def test_load_requires_base_closed_form(self):
        explicit = ExplicitQuorumSystem(range(4), [{0, 1, 2}, {0, 3}])
        implicit = ImplicitQuorumSystem(explicit, num_samples=8, seed=0)
        with pytest.raises(ComputationError, match="no closed-form load"):
            analytic_load(implicit)

    def test_crash_probability_routes_through_analytic_dispatch(self):
        from repro import exact_failure_probability

        # A small explicit base has no closed form, but the analytic
        # dispatch falls back to exact enumeration — the implicit view must
        # report that true value, never the sampled sub-family's.
        explicit = ExplicitQuorumSystem(range(4), [{0, 1, 2}, {0, 3}])
        implicit = ImplicitQuorumSystem(explicit, num_samples=2, seed=0)
        assert analytic_failure_probability(implicit, 0.3).value == pytest.approx(
            exact_failure_probability(explicit, 0.3).value, abs=1e-12
        )
        # Grid bases get the exact row/column DP, not the base's Monte-Carlo.
        grid = MGrid(10, 1)
        wrapped = ImplicitQuorumSystem(grid, num_samples=8, seed=0)
        first = measure(wrapped, "fp", p=0.1)
        assert first.method_used == "analytic"
        assert first.value == analytic_failure_probability(wrapped, 0.1).value  # deterministic
        # The forced sampled path is the base's own crash-pattern sampler.
        monte = measure(wrapped, "fp", p=0.1, method="sampled", budget=Budget(trials=2000))
        assert monte.method_used == "monte-carlo"
        assert abs(monte.value - first.value) < 0.05

    def test_fp_estimators_refuse_the_sampled_subfamily(self):
        from repro import (
            exact_failure_probability,
            monte_carlo_failure_probability,
        )
        from repro.core.availability import inclusion_exclusion_failure_probability

        implicit = ImplicitQuorumSystem(MGrid(4, 1), num_samples=4, seed=0)
        for estimator in (
            exact_failure_probability,
            monte_carlo_failure_probability,
            inclusion_exclusion_failure_probability,
        ):
            with pytest.raises(ComputationError, match="implicit system"):
                estimator(implicit, 0.1)


class TestEnginesAcceptImplicitSystems:
    def test_resolve_strategy_default_is_sampled_support(self):
        implicit = ImplicitQuorumSystem(MGrid(8, 1), num_samples=64, seed=3)
        strategy = resolve_strategy(implicit, None)
        assert set(strategy.support) <= set(implicit.quorums())
        assert resolve_strategy(implicit, "uniform").support == strategy.support

    def test_resolve_strategy_optimal_raises_above_budget(self):
        implicit = ImplicitQuorumSystem(MGrid(30, 3), num_samples=16, seed=0)
        with pytest.raises(ComputationError, match="exceeds the exact-LP enumeration"):
            resolve_strategy(implicit, "optimal")

    def test_vectorised_and_sequential_agree_on_implicit(self):
        implicit = ImplicitQuorumSystem(MGrid(16, 1), num_samples=128, seed=3)
        scenario = FaultScenario(crashed=frozenset({(0, 0), (3, 7)}))
        vectorised = run_workload(
            implicit,
            b=1,
            num_operations=400,
            scenario=scenario,
            rng=np.random.default_rng(9),
        )
        sequential = run_workload(
            implicit,
            b=1,
            num_operations=400,
            scenario=scenario,
            rng=np.random.default_rng(9),
            mode="sequential",
        )
        assert vectorised == sequential

    def test_implicit_run_matches_explicit_subfamily_run(self):
        # The engine only ever sees the strategy's support, so running the
        # implicit wrapper must equal running the materialised sample.
        implicit = ImplicitQuorumSystem(MGrid(8, 1), num_samples=64, seed=12)
        strategy = implicit.support_strategy()
        explicit = ExplicitQuorumSystem(
            implicit.universe, implicit.quorums(), name="sample", validate=False
        )
        kwargs = dict(b=1, num_operations=300, strategy=strategy)
        implicit_result = run_workload(
            implicit, rng=np.random.default_rng(21), **kwargs
        )
        explicit_result = run_workload(
            explicit, rng=np.random.default_rng(21), **kwargs
        )
        assert implicit_result == explicit_result

    def test_event_engine_runs_implicit_deployment(self):
        implicit = ImplicitQuorumSystem(MGrid(8, 1), num_samples=64, seed=5)
        result = run_event_workload(
            implicit,
            b=1,
            num_clients=4,
            operations_per_client=5,
            rng=np.random.default_rng(13),
        )
        assert result.operations == 20
        assert result.failed_operations == 0
        assert result.check is not None and result.check.ok


class TestLargeN:
    """Deployments whose quorum families are never enumerated (n = 1024 to 10^4).

    M-Grid at side = 64 has C(64, 1)^2 = 4096 quorums for b = 0 but more than
    10^7 already at b = 3.
    """

    def test_closed_forms_and_a_vectorised_run_at_ten_thousand(self):
        base = MGrid(100, 3)  # C(100, 2)^2 ~ 2.45e7 quorums: enumeration is out
        implicit = ImplicitQuorumSystem(base, num_samples=512, seed=20)
        load = analytic_load(implicit).load
        availability = analytic_failure_probability(implicit, 0.001).value
        result = run_workload(implicit, b=3, num_operations=2000, rng=np.random.default_rng(8))
        assert implicit.n == 10_000
        assert implicit.masking_bound() >= 3  # delegated closed forms, not the sample
        assert abs(load - base.load()) < 1e-12
        assert 0.0 <= availability <= 1.0
        assert result.operations == 2000 and result.failed_operations == 0
        assert result.is_consistent
        # Fault-free measured load sits near the sampled strategy's induced
        # load, within a small factor of L(Q) ~ 4/sqrt(n).
        assert result.empirical_load <= 3.0 * load

    def test_crash_run_at_4096_keeps_load_within_3x_of_one_over_sqrt_n(self):
        """A crash scenario on an implicit M-Grid(b=0) driven by the sampled-LP strategy.

        The LP over the frozen sample rebalances away the i.i.d. sampling
        noise; the engine's failure-detector steering keeps every operation
        succeeding while the busiest server stays within 3x of the
        Corollary 4.2 scale 1/sqrt(n).
        """
        n, side = 4096, 64
        base = MGrid(side, 0)
        # Each crashed cell disables a whole row/column pair for the b = 0
        # M-Grid, so the crash count scales with n.
        crash_rng = np.random.default_rng(1)
        crashed = frozenset(
            (int(row), int(column))
            for row, column in crash_rng.integers(side, size=(n // 1024, 2))
        )
        implicit = ImplicitQuorumSystem(base, num_samples=32 * side, seed=42)
        strategy = implicit.sampled_optimal_strategy()
        result = run_workload(
            implicit,
            b=0,
            num_operations=8 * n,
            scenario=FaultScenario(crashed=crashed),
            strategy=strategy,
            rng=np.random.default_rng(5),
        )
        assert result.operations == 8 * n
        assert result.failed_operations == 0  # steering rides out the crashes
        assert result.is_consistent
        assert result.empirical_load <= 3.0 / np.sqrt(n), result.empirical_load
        # And the sampled-LP strategy itself sits essentially at L(Q).
        assert strategy.induced_system_load(implicit.universe) <= 1.5 * base.load()

    def test_event_engine_at_n1024(self):
        implicit = ImplicitQuorumSystem(MGrid(32, 1), num_samples=256, seed=11)
        result = run_event_workload(
            implicit, b=1, num_clients=8, operations_per_client=10,
            rng=np.random.default_rng(2),
        )
        assert result.operations == 80
        assert result.failed_operations == 0
        assert result.check is not None and result.check.ok


class TestStrategyFromMasks:
    def test_merges_duplicates_and_primes_mask_cache(self):
        universe = Universe.of_size(5)
        masks = (0b00111, 0b11100, 0b00111)
        strategy = Strategy.from_masks(universe, masks, (0.25, 0.5, 0.25))
        assert len(strategy) == 2
        assert strategy.probability(frozenset({0, 1, 2})) == pytest.approx(0.5)
        assert strategy.probability(frozenset({2, 3, 4})) == pytest.approx(0.5)
        # The cache is primed in support order, no frozenset round-trip.
        assert strategy.support_masks(universe) == (0b00111, 0b11100)

    def test_uniform_default_and_normalisation(self):
        universe = Universe.of_size(4)
        strategy = Strategy.from_masks(universe, (0b0111, 0b1110))
        assert strategy.probability(frozenset({0, 1, 2})) == pytest.approx(0.5)
        with pytest.raises(StrategyError):
            Strategy.from_masks(universe, (0b0111, 0b1110), (1.0,))
        with pytest.raises(StrategyError):
            Strategy.from_masks(universe, (0b0111,), (-1.0,))
        with pytest.raises(StrategyError, match="0b10011"):
            Strategy.from_masks(universe, (0b10011, 0b0011))
        with pytest.raises(StrategyError, match="0b0 "):
            Strategy.from_masks(universe, (0, 0b0011))

    def test_sampling_consistent_with_engine_rows(self):
        universe = Universe.of_size(6)
        masks = (0b000111, 0b011100, 0b110001)
        strategy = Strategy.from_masks(universe, masks, (0.2, 0.3, 0.5))
        engine = strategy.support_engine(universe)
        assert engine.masks == strategy.support_masks(universe)
        indices = strategy.sample_many(np.random.default_rng(2), 200)
        assert set(np.unique(indices)) <= {0, 1, 2}
