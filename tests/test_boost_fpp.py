"""Unit tests for boostFPP (Section 6) and the general boosting transform."""

from __future__ import annotations

import math

import pytest

from repro import (
    BoostedFPP,
    ConstructionError,
    CrumblingWall,
    RegularGrid,
    boost_masking,
    exact_load,
    load_lower_bound,
    majority,
    verify_masking,
)


class TestProposition61Parameters:
    def test_small_instance_parameters(self, boost_fpp_small):
        # q = 2, b = 1: n = 5 * 7 = 35, c = 4 * 3 = 12, IS = 3, MT = 2 * 3 = 6.
        assert boost_fpp_small.n == 35
        assert boost_fpp_small.min_quorum_size() == 12
        assert boost_fpp_small.min_intersection_size() == 3
        assert boost_fpp_small.min_transversal_size() == 6
        assert boost_fpp_small.masking_bound() == 1

    def test_parameters_match_theorem_4_7_algebra(self, boost_fpp_small):
        outer, inner = boost_fpp_small.plane, boost_fpp_small.threshold_block
        assert boost_fpp_small.min_quorum_size() == outer.min_quorum_size() * inner.min_quorum_size()
        assert boost_fpp_small.min_transversal_size() == (
            outer.min_transversal_size() * inner.min_transversal_size()
        )
        assert boost_fpp_small.min_intersection_size() == (
            outer.min_intersection_size() * inner.min_intersection_size()
        )

    def test_parameters_match_enumeration(self, boost_fpp_small):
        explicit = boost_fpp_small.to_explicit()
        assert explicit.min_quorum_size() == 12
        assert explicit.min_intersection_size() == 3
        assert explicit.min_transversal_size() == 6

    def test_masking_verified_literally(self, boost_fpp_small):
        verify_masking(boost_fpp_small.to_explicit(), 1)

    def test_paper_sized_instance(self):
        # The Section 8 instance: q = 3, b = 19 -> n = 1001, f = 79.
        system = BoostedFPP(3, 19)
        assert system.n == 1001
        assert system.min_quorum_size() == 58 * 4
        assert system.min_transversal_size() - 1 == 79
        assert system.masking_bound() == 19

    def test_invalid_parameters(self):
        with pytest.raises(ConstructionError):
            BoostedFPP(3, 0)
        with pytest.raises(ConstructionError):
            BoostedFPP(6, 2)  # 6 is not a prime power


class TestProposition62Load:
    def test_load_formula(self):
        system = BoostedFPP(3, 2)
        expected = (3 * 2 + 1) * 4 / ((4 * 2 + 1) * 13)
        assert system.load() == pytest.approx(expected)
        assert system.load() == pytest.approx(3 / (4 * 3), rel=0.35)

    def test_load_is_optimal(self):
        # Proposition 6.2: within a small constant of sqrt(2b/n) for any q, b.
        for q, b in [(2, 1), (2, 4), (3, 3), (4, 5)]:
            system = BoostedFPP(q, b)
            assert system.load() <= 1.7 * load_lower_bound(system.n, b)

    def test_load_matches_lp_on_small_instance(self, boost_fpp_small):
        lp = exact_load(boost_fpp_small.to_explicit()).load
        assert lp == pytest.approx(boost_fpp_small.load(), abs=1e-6)

    def test_exact_load_python_calls(self, python_calls):
        # measure_sweep's boostFPP(3,1) call: 41 030 Python calls when the
        # uniform certificate built its 8 125 quorums as frozensets; what is
        # left is enumerating the masks.
        system = BoostedFPP(3, 1)
        calls, result = python_calls(lambda: exact_load(system))
        assert (result.method, len(result.strategy)) == ("fair", 8125)
        assert result.load == pytest.approx(16 / 65, abs=1e-12)
        assert calls <= 10_000, calls

    def test_scaling_policies(self):
        # Policy 1: fix q, increase b -> more masking, same load scale.
        fixed_q = [BoostedFPP(3, b).load() for b in (1, 5, 20)]
        assert max(fixed_q) - min(fixed_q) < 0.12
        # Policy 2: fix b, increase q -> load decreases.
        fixed_b = [BoostedFPP(q, 2).load() for q in (2, 3, 5, 7)]
        assert fixed_b == sorted(fixed_b, reverse=True)


class TestProposition63Availability:
    def test_crash_probability_composes(self, boost_fpp_small):
        p = 0.1
        inner_fp = boost_fpp_small.threshold_block.crash_probability(p)
        expected = 1 - (1 - inner_fp) ** 3
        assert boost_fpp_small.crash_probability(p) == pytest.approx(expected)

    def test_chernoff_closed_form(self):
        system = BoostedFPP(3, 19)
        p = 0.125
        expected = 4 * math.exp(-19 * (1 - 0.5) ** 2 / 2)
        assert system.crash_probability_chernoff_bound(p) == pytest.approx(expected)
        # The paper quotes this value as <= 0.372.
        assert expected == pytest.approx(0.372, abs=2e-3)

    def test_chernoff_bound_dominates_composed_estimate(self):
        system = BoostedFPP(3, 10)
        for p in (0.05, 0.1, 0.2):
            assert system.crash_probability(p) <= system.crash_probability_chernoff_bound(p) + 1e-9

    def test_bound_vacuous_above_one_quarter(self):
        assert BoostedFPP(3, 10).crash_probability_chernoff_bound(0.3) == 1.0

    def test_availability_improves_with_b_below_one_quarter(self):
        values = [BoostedFPP(3, b).crash_probability(0.1) for b in (1, 4, 10, 20)]
        assert values == sorted(values, reverse=True)

    def test_availability_collapses_above_one_quarter(self):
        # The p < 1/4 requirement is essential (remark after Prop 6.3).
        values = [BoostedFPP(3, b).crash_probability(0.3) for b in (1, 4, 10, 20)]
        assert values[-1] > 0.9


class TestGeneralBoosting:
    @pytest.mark.parametrize("b", [1, 2])
    def test_boosting_any_regular_system_gives_masking(self, b):
        for regular in (majority(3), RegularGrid(3), CrumblingWall([1, 2, 2])):
            boosted = boost_masking(regular, b)
            assert boosted.min_intersection_size() >= 2 * b + 1
            assert boosted.min_transversal_size() >= b + 1
            assert boosted.is_b_masking(b)
            assert boosted.n == regular.n * (4 * b + 1)

    def test_boosted_majority_literal_masking_check(self):
        boosted = boost_masking(majority(3), 1)
        verify_masking(boosted.to_explicit(), 1)

    def test_boost_zero_is_identity_blockwise(self):
        boosted = boost_masking(majority(3), 0)
        assert boosted.n == 3
        assert boosted.min_intersection_size() == majority(3).min_intersection_size()

    def test_negative_b_rejected(self):
        with pytest.raises(ConstructionError):
            boost_masking(majority(3), -1)

    def test_boosted_load_multiplies(self):
        regular = majority(5)
        boosted = boost_masking(regular, 1)
        assert boosted.load() == pytest.approx(regular.load() * 4 / 5)


class TestSection6Sweeps:
    """Propositions 6.2 and 6.3 across (q, b), and the two scaling policies."""

    @pytest.mark.parametrize("q,b", [(2, 2), (3, 2), (3, 19), (4, 5), (5, 10), (7, 8)])
    def test_load_is_three_quarters_over_q_and_optimal(self, q, b):
        system = BoostedFPP(q, b)
        load = system.load()
        bound = load_lower_bound(system.n, b)
        assert load == pytest.approx(3 / (4 * q), rel=0.25)
        assert bound - 1e-12 <= load <= 1.8 * bound

    def test_exact_load_python_calls(self, python_calls):
        # measure_sweep's boostFPP(3,1) call: 41 030 Python calls when the
        # uniform certificate built its 8 125 quorums as frozensets; what is
        # left is enumerating the masks.
        system = BoostedFPP(3, 1)
        calls, result = python_calls(lambda: exact_load(system))
        assert (result.method, len(result.strategy)) == ("fair", 8125)
        assert result.load == pytest.approx(16 / 65, abs=1e-12)
        assert calls <= 10_000, calls

    def test_scaling_policies(self):
        # Policy 1, fix q = 3 and grow b: masking grows, load stays ~ 3/(4q).
        fixed_q = [BoostedFPP(3, b) for b in (1, 4, 16, 64)]
        masking = [system.masking_bound() for system in fixed_q]
        loads_q = [system.load() for system in fixed_q]
        assert masking == sorted(masking)
        assert max(loads_q) - min(loads_q) < 0.03
        # Policy 2, fix b = 4 and grow q: load shrinks like 1/q, masking stays b.
        fixed_b = [BoostedFPP(q, 4) for q in (2, 3, 4, 5, 7, 8)]
        loads_b = [system.load() for system in fixed_b]
        assert loads_b == sorted(loads_b, reverse=True)
        assert all(system.masking_bound() == 4 for system in fixed_b)

    def test_availability_below_and_above_one_quarter(self):
        """Fp <= (q+1) exp(-b(1-4p)^2/2) below p = 1/4; collapse above it."""
        estimates = []
        for b in (2, 5, 10, 20, 40):
            system = BoostedFPP(3, b)
            composed = system.crash_probability(0.125)
            assert composed <= system.crash_probability_chernoff_bound(0.125) + 1e-12
            estimates.append(composed)
        # Availability improves exponentially with b below the threshold...
        assert estimates == sorted(estimates, reverse=True)
        assert estimates[-1] < 1e-4
        # ...and collapses above p = 1/4 (the remark after Proposition 6.3).
        above = [BoostedFPP(3, b).crash_probability(0.3) for b in (2, 10, 40)]
        assert above == sorted(above)
        assert above[-1] > 0.99
