"""Unit tests for quorum composition (Definition 4.6, Theorem 4.7)."""

from __future__ import annotations

import pytest

from repro import (
    RegularGrid,
    ThresholdQuorumSystem,
    boost_masking,
    compose,
    exact_failure_probability,
    exact_load,
    majority,
    self_compose,
)
from repro.api import measure


@pytest.fixture
def maj3():
    return majority(3)


@pytest.fixture
def thresh_4_3():
    return ThresholdQuorumSystem(4, 3)


class TestStructure:
    def test_universe_size_multiplies(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        assert composed.n == 12

    def test_elements_are_tagged_pairs(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        assert (0, 0) in composed.universe
        assert (2, 3) in composed.universe

    def test_quorum_count(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        # Outer quorums have size 2; each of the 3 outer quorums expands to
        # 4^2 = 16 combinations of inner quorums.
        assert composed.num_quorums() == 3 * 16
        assert composed.num_quorums() == len(set(composed.quorums()))

    def test_quorums_are_valid(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        composed.to_explicit().validate()

    def test_name_defaults_to_composition(self, maj3, thresh_4_3):
        assert "∘" in compose(maj3, thresh_4_3).name


class TestTheorem47Parameters:
    def test_combinatorial_parameters_match_enumeration(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        explicit = composed.to_explicit()
        assert composed.min_quorum_size() == explicit.min_quorum_size() == 2 * 3
        assert composed.min_intersection_size() == explicit.min_intersection_size() == 1 * 2
        assert composed.min_transversal_size() == explicit.min_transversal_size() == 2 * 2

    def test_fairness_multiplies(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        size, degree = composed.fairness()
        explicit_size, explicit_degree = composed.to_explicit().fairness()
        assert (size, degree) == (explicit_size, explicit_degree)

    def test_composition_with_unfair_component_is_not_fair(self, simple_system, maj3):
        composed = compose(simple_system, maj3)
        assert composed.fairness() is None


class TestTheorem47LoadAndAvailability:
    def test_load_multiplies(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        expected = exact_load(maj3).load * exact_load(thresh_4_3).load
        assert composed.load() == pytest.approx(expected)
        # And the exact LP on the composed system agrees.
        assert exact_load(composed.to_explicit()).load == pytest.approx(expected, abs=1e-6)

    def test_crash_probability_composes(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        p = 0.2
        inner_fp = thresh_4_3.crash_probability(p)
        expected = maj3.crash_probability(inner_fp)
        assert composed.crash_probability(p) == pytest.approx(expected)
        # Cross-check against exhaustive enumeration over the 12 servers.
        exhaustive = exact_failure_probability(composed.to_explicit(), p).value
        assert exhaustive == pytest.approx(expected, abs=1e-9)

    def test_crash_probability_is_the_exact_decomposition_not_an_estimate(self):
        # Regression: the factors' crash_probability methods are Monte-Carlo
        # samplers on grids, and the composition used to compose two such
        # estimates (0.0014 for a true 0.0015738, different on every call).
        small = compose(RegularGrid(2), RegularGrid(2))  # 16 servers: enumerable
        exhaustive = exact_failure_probability(small.to_explicit(), 0.1).value
        assert small.crash_probability(0.1) == pytest.approx(exhaustive, abs=1e-9)
        # 81 servers: hold it to Theorem 4.7 with both factors enumerated.
        grid = RegularGrid(3)
        composed = compose(grid, grid)
        value = composed.crash_probability(0.1)
        assert value == composed.crash_probability(0.1)
        inner = exact_failure_probability(grid, 0.1).value
        assert value == pytest.approx(exact_failure_probability(grid, inner).value, abs=1e-9)
        assert value == pytest.approx(0.0015738, abs=1e-7)

    def test_load_uses_lp_for_a_factor_without_closed_form(self, simple_system, maj3):
        composed = compose(simple_system, maj3)
        expected = exact_load(simple_system).load * maj3.load()
        assert composed.load() == pytest.approx(expected, abs=1e-9)

    def test_sampled_quorums_are_quorums(self, maj3, thresh_4_3, rng):
        composed = compose(maj3, thresh_4_3)
        quorum_set = set(composed.quorums())
        for _ in range(10):
            assert composed.sample_quorum(rng) in quorum_set


class TestSelfComposition:
    def test_depth_one_is_identity(self, thresh_4_3):
        assert self_compose(thresh_4_3, 1) is thresh_4_3

    def test_depth_two_matches_rt(self, thresh_4_3, rt_4_3_depth2):
        composed = self_compose(thresh_4_3, 2)
        assert composed.n == rt_4_3_depth2.n
        assert composed.min_quorum_size() == rt_4_3_depth2.min_quorum_size()
        assert composed.min_intersection_size() == rt_4_3_depth2.min_intersection_size()
        assert composed.min_transversal_size() == rt_4_3_depth2.min_transversal_size()
        assert composed.num_quorums() == rt_4_3_depth2.num_quorums()

    def test_depth_two_crash_probability_matches_rt_recurrence(self, thresh_4_3, rt_4_3_depth2):
        composed = self_compose(thresh_4_3, 2)
        for p in (0.1, 0.25, 0.5):
            assert composed.crash_probability(p) == pytest.approx(
                rt_4_3_depth2.crash_probability(p), abs=1e-12
            )

    def test_invalid_depth_rejected(self, thresh_4_3):
        with pytest.raises(ValueError):
            self_compose(thresh_4_3, 0)

    def test_naming_override(self, thresh_4_3):
        composed = self_compose(thresh_4_3, 2, name="RT-ish")
        assert composed.name == "RT-ish"


class TestBestKnownLoadIntegration:
    def test_measure_uses_composition_formula(self, maj3, thresh_4_3):
        composed = compose(maj3, thresh_4_3)
        result = measure(composed, "load")
        assert result.method_used == "analytic"
        assert result.value == pytest.approx(composed.load())


class TestTheorem47Table:
    """The full Theorem 4.7 table: closed-form algebra = brute force on S∘R."""

    @pytest.mark.parametrize(
        "outer,inner",
        [
            (majority(3), ThresholdQuorumSystem(4, 3)),
            (ThresholdQuorumSystem(4, 3), majority(3)),
            (majority(5), majority(3)),
        ],
        ids=["maj3-of-3of4", "3of4-of-maj3", "maj5-of-maj3"],
    )
    def test_algebra_matches_the_materialised_composition(self, outer, inner):
        composed = compose(outer, inner)
        explicit = composed.to_explicit()
        assert composed.min_quorum_size() == explicit.min_quorum_size()
        assert composed.min_intersection_size() == explicit.min_intersection_size()
        assert composed.min_transversal_size() == explicit.min_transversal_size()
        assert composed.load() == pytest.approx(exact_load(explicit).load, abs=1e-6)
        assert composed.crash_probability(0.15) == pytest.approx(
            exact_failure_probability(explicit, 0.15).value, abs=1e-9
        )

    @pytest.mark.parametrize(
        "regular", [majority(5), RegularGrid(3), majority(7)], ids=lambda system: system.name
    )
    def test_boosting_makes_regular_systems_masking_at_four_fifths_the_load(self, regular):
        """Section 6's boosting with 4-of-5 blocks: b = 1, load x 0.8."""
        boosted = boost_masking(regular, 1)
        assert boosted.is_b_masking(1)
        assert boosted.n == regular.n * 5
        assert boosted.load() == pytest.approx(regular.load() * 0.8, abs=1e-9)

    def test_self_composition_doubles_intersection_and_transversal(self):
        """Self-composing the 3-of-4 block drives IS and MT up exponentially (RT)."""
        block = ThresholdQuorumSystem(4, 3)
        for depth in (1, 2, 3, 4, 5):
            composed = self_compose(block, depth)
            assert composed.min_intersection_size() == 2**depth
            assert composed.min_transversal_size() == 2**depth
            assert composed.load() == pytest.approx(0.75**depth)
