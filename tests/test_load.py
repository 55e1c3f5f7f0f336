"""Unit tests for the load measure (Definition 3.8, Proposition 3.9)."""

from __future__ import annotations


import pytest

from repro import (
    ComputationError,
    ExplicitQuorumSystem,
    Strategy,
    exact_load,
    fair_load,
    load_of_strategy,
)
from repro.api import measure


class TestExactLoadLP:
    def test_majority_load(self, majority_5):
        # Fair system: L = c/n = 3/5.
        result = exact_load(majority_5)
        assert result.load == pytest.approx(0.6, abs=1e-6)
        assert result.method == "lp"

    def test_singleton_load_is_one(self, singleton_system):
        assert exact_load(singleton_system).load == pytest.approx(1.0)

    def test_simple_system_load(self, simple_system):
        # The middle element 2 is in every quorum, so its load is 1 under any
        # strategy; the LP cannot do better.
        assert exact_load(simple_system).load == pytest.approx(1.0)

    def test_lp_strategy_achieves_reported_load(self, majority_5):
        result = exact_load(majority_5)
        induced = load_of_strategy(majority_5, result.strategy)
        assert induced == pytest.approx(result.load, abs=1e-6)

    def test_lp_matches_fair_formula_on_fair_systems(self, threshold_9_7, fpp_order2):
        for system in (threshold_9_7, fpp_order2):
            lp_value = exact_load(system).load
            assert lp_value == pytest.approx(system.min_quorum_size() / system.n, abs=1e-6)

    def test_grid_load_lp(self, regular_grid_4):
        # Maekawa grid is fair: L = (2*4 - 1)/16.
        assert exact_load(regular_grid_4).load == pytest.approx(7 / 16, abs=1e-6)

    def test_non_fair_system_can_beat_uniform(self):
        # Wheel-like system: quorums {0, i} for spokes plus the rim {1, 2, 3}.
        system = ExplicitQuorumSystem(
            range(4), [{0, 1}, {0, 2}, {0, 3}, {1, 2, 3}], name="wheel"
        )
        uniform = Strategy.uniform_over_system(system)
        lp = exact_load(system)
        assert lp.load < uniform.induced_system_load(system.universe)
        # Optimal split: 0.6 total weight on the spokes, 0.4 on the rim.
        assert lp.load == pytest.approx(0.6, abs=1e-6)


class TestFairLoad:
    def test_fair_load_on_fair_system(self, threshold_9_7):
        result = fair_load(threshold_9_7)
        assert result.load == pytest.approx(7 / 9)
        assert result.method == "fair"

    def test_fair_load_rejects_unfair_system(self, simple_system):
        with pytest.raises(ComputationError):
            fair_load(simple_system)

    def test_fair_load_strategy_is_uniform(self, majority_5):
        result = fair_load(majority_5)
        probabilities = {p for _, p in result.strategy.items()}
        assert len(probabilities) == 1


class TestBestKnownLoad:
    """The load ladder lives in ``api.measure``."""

    def test_prefers_analytic_closed_form(self, mgrid_7_3):
        result = measure(mgrid_7_3, "load")
        assert result.method_used == "analytic"
        assert result.value == pytest.approx(mgrid_7_3.load())

    def test_falls_back_to_fair_formula(self, simple_system, majority_5):
        assert measure(majority_5.to_explicit(), "load").method_used == "fair"
        assert measure(simple_system, "load").method_used == "lp"

    def test_analytic_load_agrees_with_lp_for_mgrid(self, mgrid_7_3):
        lp_value = exact_load(mgrid_7_3).load
        assert lp_value == pytest.approx(mgrid_7_3.load(), abs=1e-6)


class TestLoadOfStrategy:
    def test_matches_induced_system_load(self, majority_5):
        strategy = Strategy.uniform_over_system(majority_5)
        assert load_of_strategy(majority_5, strategy) == pytest.approx(0.6)

    def test_skewed_strategy_overloads_some_server(self, majority_5):
        favourite = majority_5.quorums()[0]
        strategy = Strategy({favourite: 1.0})
        assert load_of_strategy(majority_5, strategy) == pytest.approx(1.0)
