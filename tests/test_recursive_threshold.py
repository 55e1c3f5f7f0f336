"""Unit tests for the recursive threshold systems RT(k, l) (Section 5.2, Figure 2)."""

from __future__ import annotations

import math

import pytest

from repro import ConstructionError, RecursiveThreshold, exact_load, verify_masking


class TestConstruction:
    def test_figure2_instance(self, rt_4_3_depth2):
        assert rt_4_3_depth2.n == 16
        assert rt_4_3_depth2.num_quorums() == 256

    def test_parameter_validation(self):
        with pytest.raises(ConstructionError):
            RecursiveThreshold(4, 2, 2)   # l must exceed k/2
        with pytest.raises(ConstructionError):
            RecursiveThreshold(4, 4, 2)   # l must be below k
        with pytest.raises(ConstructionError):
            RecursiveThreshold(4, 3, 0)   # depth >= 1

    def test_depth_one_is_the_basic_block(self):
        system = RecursiveThreshold(4, 3, 1)
        assert system.n == 4
        assert system.num_quorums() == 4
        assert system.min_intersection_size() == 2

    def test_hqs_special_case(self):
        # Kumar's HQS is RT(3, 2); depth 2 has 9 servers.
        system = RecursiveThreshold(3, 2, 2)
        assert system.n == 9
        assert system.min_quorum_size() == 4
        assert system.min_transversal_size() == 4


class TestProposition53:
    @pytest.mark.parametrize("k,l,depth", [(4, 3, 1), (4, 3, 2), (3, 2, 2), (5, 4, 1)])
    def test_parameters_match_enumeration(self, k, l, depth):
        system = RecursiveThreshold(k, l, depth)
        explicit = system.to_explicit()
        assert explicit.min_quorum_size() == l ** depth
        assert explicit.min_intersection_size() == (2 * l - k) ** depth
        assert explicit.min_transversal_size() == (k - l + 1) ** depth
        assert explicit.num_quorums() == system.num_quorums()
        assert explicit.fairness() is not None

    def test_corollary_5_4_masking(self, rt_4_3_depth2):
        # b = min{(IS-1)/2, MT-1} = min{1, 3} = 1 at depth 2.
        assert rt_4_3_depth2.masking_bound() == 1
        verify_masking(rt_4_3_depth2, 1)

    def test_depth3_masks_more(self):
        system = RecursiveThreshold(4, 3, 3)
        # IS = 8, MT = 8 -> b = 3.
        assert system.masking_bound() == 3

    def test_basic_block_is_not_masking(self):
        # The 3-of-4 block has IS = 2 < 3, as the paper notes.
        assert RecursiveThreshold(4, 3, 1).masking_bound() == 0


class TestProposition55Load:
    def test_load_closed_form(self, rt_4_3_depth2):
        assert rt_4_3_depth2.load() == pytest.approx((3 / 4) ** 2)
        assert rt_4_3_depth2.load() == pytest.approx(16 ** -(1 - math.log(3, 4)), rel=1e-9)

    def test_load_matches_lp(self, rt_4_3_depth2):
        assert exact_load(rt_4_3_depth2).load == pytest.approx(rt_4_3_depth2.load(), abs=1e-6)

    def test_load_suboptimal_exponent(self):
        # RT(4,3) has load n^-0.2075 which is worse than the optimal n^-0.25
        # at its masking level (remark after Proposition 5.5).
        system = RecursiveThreshold(4, 3, 4)
        optimal = math.sqrt((2 * system.masking_bound() + 1) / system.n)
        assert system.load() > optimal


class TestAvailability:
    def test_block_crash_function_matches_polynomial(self, rt_4_3_depth2):
        # g(p) = 6p^2 - 8p^3 + 3p^4 for the 3-of-4 block.
        for p in (0.0, 0.1, 0.2324, 0.4, 1.0):
            expected = 6 * p ** 2 - 8 * p ** 3 + 3 * p ** 4
            assert rt_4_3_depth2.block_crash_function(p) == pytest.approx(expected, abs=1e-12)

    def test_crash_probability_recurrence(self, rt_4_3_depth2):
        p = 0.1
        g = rt_4_3_depth2.block_crash_function
        assert rt_4_3_depth2.crash_probability(p) == pytest.approx(g(g(p)), abs=1e-12)

    def test_crash_probability_matches_enumeration_at_depth2(self, rt_4_3_depth2):
        from repro import exact_failure_probability

        for p in (0.1, 0.3):
            exact = exact_failure_probability(rt_4_3_depth2.to_explicit(), p).value
            assert rt_4_3_depth2.crash_probability(p) == pytest.approx(exact, abs=1e-9)

    def test_critical_probability_value(self, rt_4_3_depth2):
        # Proposition 5.6 + the paper's direct calculation: pc = 0.2324.
        assert rt_4_3_depth2.critical_probability() == pytest.approx(0.2324, abs=5e-4)

    def test_fp_decays_below_critical_and_grows_above(self):
        below = [RecursiveThreshold(4, 3, h).crash_probability(0.15) for h in range(1, 6)]
        above = [RecursiveThreshold(4, 3, h).crash_probability(0.35) for h in range(1, 6)]
        assert below == sorted(below, reverse=True)
        assert below[-1] < 1e-3
        assert above == sorted(above)
        assert above[-1] > 0.9

    def test_proposition_5_7_upper_bound(self):
        # For p < 1/C(k, l-1) = 1/6 the bound (6p)^(2^h) dominates the true Fp.
        for depth in (1, 2, 3, 4):
            system = RecursiveThreshold(4, 3, depth)
            for p in (0.05, 0.1, 0.15):
                assert system.crash_probability(p) <= system.crash_probability_upper_bound(p) + 1e-12

    def test_invalid_probability_rejected(self, rt_4_3_depth2):
        with pytest.raises(Exception):
            rt_4_3_depth2.block_crash_function(1.4)


class TestSampling:
    def test_sampled_quorum_is_a_quorum(self, rt_4_3_depth2, rng):
        quorum_set = set(rt_4_3_depth2.quorums())
        for _ in range(10):
            assert rt_4_3_depth2.sample_quorum(rng) in quorum_set

    def test_sampled_quorum_size(self, rng):
        system = RecursiveThreshold(4, 3, 3)
        assert len(system.sample_quorum(rng)) == 27


class TestSection52Sweeps:
    """Propositions 5.3 and 5.5-5.7 across depths and (k, l) choices."""

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_load_exponent_is_one_minus_log4_3(self, depth):
        system = RecursiveThreshold(4, 3, depth)
        exponent = -math.log(system.load()) / math.log(system.n)
        optimal_exponent = -math.log(
            math.sqrt((2 * system.masking_bound() + 1) / system.n)
        ) / math.log(system.n)
        assert system.load() == pytest.approx((3 / 4) ** depth)
        assert exponent == pytest.approx(1 - math.log(3, 4), abs=1e-9)
        # The remark after Proposition 5.5: the exponent is worse (smaller)
        # than the optimal ~0.25 achievable at this masking level.
        assert exponent < optimal_exponent

    def test_critical_probability_is_sharp(self):
        """Proposition 5.6: the RT(4,3) recurrence has its fixed point at 0.2324."""
        critical = RecursiveThreshold(4, 3, 6).critical_probability()
        assert critical == pytest.approx(0.2324, abs=5e-4)
        depths = range(1, 7)
        below = [RecursiveThreshold(4, 3, h).crash_probability(critical - 0.04) for h in depths]
        above = [RecursiveThreshold(4, 3, h).crash_probability(critical + 0.04) for h in depths]
        assert below == sorted(below, reverse=True)
        assert below[-1] < 1e-2
        assert above == sorted(above)
        assert above[-1] > 0.6

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_decay_bound_of_proposition_5_7(self, depth):
        """p^MT <= Fp(RT(4,3)) <= (6p)^sqrt(n) at p = 0.1 < 1/6."""
        p = 0.1
        system = RecursiveThreshold(4, 3, depth)
        exact = system.crash_probability(p)
        upper = system.crash_probability_upper_bound(p)
        assert p ** system.min_transversal_size() - 1e-15 <= exact <= upper + 1e-15
        assert upper == pytest.approx((6 * p) ** (2**depth))

    def test_other_k_l_choices(self):
        """RT(3,2) (HQS) and RT(5,4) follow the Proposition 5.3 closed forms."""
        hqs = RecursiveThreshold(3, 2, 4)
        assert (
            hqs.min_quorum_size(), hqs.min_intersection_size(), hqs.min_transversal_size()
        ) == (2**4, 1, 2**4)
        assert hqs.masking_bound() == 0  # a regular (non-masking) family
        rt54 = RecursiveThreshold(5, 4, 3)
        assert (
            rt54.min_quorum_size(), rt54.min_intersection_size(), rt54.min_transversal_size()
        ) == (4**3, 3**3, 2**3)
        assert rt54.masking_bound() == 7
