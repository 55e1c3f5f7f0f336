"""Unit tests for the M-Grid construction (Section 5.1, Figure 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import ConstructionError, MGrid, exact_load, load_lower_bound, verify_masking


class TestConstruction:
    def test_figure1_instance(self, mgrid_7_3):
        # Figure 1: n = 7x7, b = 3 -> 2 rows + 2 columns per quorum.
        assert mgrid_7_3.n == 49
        assert mgrid_7_3.k == 2
        assert mgrid_7_3.num_quorums() == math.comb(7, 2) ** 2

    def test_rejects_b_above_proposition_5_1_bound(self):
        with pytest.raises(ConstructionError):
            MGrid(7, 4)  # b must be <= (sqrt(n)-1)/2 = 3

    def test_rejects_quorums_that_do_not_fit(self):
        with pytest.raises(ConstructionError):
            MGrid(3, 3)

    def test_rejects_negative_b_and_tiny_side(self):
        with pytest.raises(ConstructionError):
            MGrid(7, -1)
        with pytest.raises(ConstructionError):
            MGrid(1, 0)

    def test_b_zero_is_a_regular_quorum_system(self):
        system = MGrid(4, 0)
        assert system.k == 1
        system.to_explicit().validate()


class TestMeasures:
    def test_analytic_values_match_enumeration(self, mgrid_7_3):
        explicit = mgrid_7_3.to_explicit()
        assert explicit.min_quorum_size() == mgrid_7_3.min_quorum_size() == 24
        assert explicit.min_intersection_size() == mgrid_7_3.min_intersection_size() == 8
        assert explicit.min_transversal_size() == mgrid_7_3.min_transversal_size() == 6

    def test_proposition_5_1_masking(self, mgrid_7_3):
        # The intersection 2(b+1) = 8 exceeds 2b+1 = 7 and MT = 6 >= b+1.
        verify_masking(mgrid_7_3, 3)
        assert mgrid_7_3.masking_bound() == 3
        assert not mgrid_7_3.is_b_masking(4)

    def test_proposition_5_2_load(self, mgrid_7_3):
        # Fair system: L = c/n ~ 2 sqrt(b+1)/sqrt(n).
        assert mgrid_7_3.load() == pytest.approx(24 / 49)
        assert exact_load(mgrid_7_3).load == pytest.approx(24 / 49, abs=1e-6)

    def test_load_is_optimal_up_to_constant(self):
        # Remark after Prop 5.2: within sqrt(2) (plus integrality slack) of
        # the Corollary 4.2 lower bound.
        for side, b in [(8, 3), (12, 5), (16, 7)]:
            system = MGrid(side, b)
            bound = load_lower_bound(system.n, b)
            assert system.load() <= 2.1 * bound

    def test_fairness(self, mgrid_7_3):
        size, _ = mgrid_7_3.to_explicit().fairness()
        assert size == 24

    def test_resilience_formula(self):
        # f = MT - 1 = side - ceil(sqrt(b+1)).
        for side, b in [(7, 3), (9, 3), (12, 5)]:
            system = MGrid(side, b)
            k = system.k
            assert system.min_transversal_size() - 1 == side - k


class TestAvailability:
    def test_crash_probability_lower_bound_formula(self):
        system = MGrid(6, 1)
        p = 0.2
        expected = (1 - 0.8 ** 6) ** 6
        assert system.crash_probability_lower_bound(p) == pytest.approx(expected)

    def test_monte_carlo_respects_lower_bound(self, rng):
        system = MGrid(8, 3)
        p = 0.2
        estimate = system.crash_probability(p, trials=4000, rng=rng)
        assert estimate >= system.crash_probability_lower_bound(p) - 0.03

    def test_fp_tends_to_one_with_n(self, rng):
        # The Section 5.1 weakness: availability degrades as the grid grows.
        small = MGrid(5, 1).crash_probability(0.25, trials=4000, rng=rng)
        large = MGrid(12, 1).crash_probability(0.25, trials=4000, rng=rng)
        assert large > small
        assert large > 0.8

    def test_extreme_probabilities(self, rng):
        system = MGrid(5, 1)
        assert system.crash_probability(0.0, trials=200, rng=rng) == 0.0
        assert system.crash_probability(1.0, trials=200, rng=rng) == 1.0
        with pytest.raises(Exception):
            system.crash_probability(1.5, trials=10, rng=rng)


class TestSampling:
    def test_sampled_quorum_is_a_quorum(self, mgrid_7_3, rng):
        quorum_set = set(mgrid_7_3.quorums())
        for _ in range(5):
            assert mgrid_7_3.sample_quorum(rng) in quorum_set

    def test_sampled_quorum_has_expected_size(self, rng):
        system = MGrid(9, 3)
        assert len(system.sample_quorum(rng)) == system.min_quorum_size()


class TestSection51Sweeps:
    """Proposition 5.2 across grid sizes, and the Section 5.1 availability warning."""

    @pytest.mark.parametrize("side,b", [(7, 3), (10, 3), (16, 7), (20, 9), (32, 15)])
    def test_load_follows_proposition_5_2(self, side, b):
        load = MGrid(side, b).load()
        approximation = 2 * math.sqrt(b + 1) / side
        # L ~ 2 sqrt(b+1)/sqrt(n); the exact value is the fair-system c/n,
        # which deviates from the approximation only through the integrality
        # of ceil(sqrt(b+1)) and the row/column overlap.
        assert 0.6 * approximation <= load <= 1.35 * approximation
        # Optimality: within sqrt(2) (plus integrality) of the lower bound.
        assert load <= 2.0 * load_lower_bound(side * side, b)

    def test_lower_bound_and_monte_carlo_climb_with_n(self):
        rng = np.random.default_rng(20240614)
        p = 0.15
        bounds, estimates = [], []
        for side in (6, 10, 16, 24):
            system = MGrid(side, 1)
            bounds.append(system.crash_probability_lower_bound(p))
            estimates.append(system.crash_probability(p, trials=4000, rng=rng))
        assert bounds == sorted(bounds)
        assert estimates[-1] > estimates[0]
        assert estimates[-1] > 0.9
        for bound, estimate in zip(bounds, estimates):
            assert estimate >= bound - 0.03
