"""Unit tests for the lower bounds of Section 4.1 (Theorem 4.1, Props 4.3-4.5)."""

from __future__ import annotations

import math

import pytest

from repro import (
    BoostedFPP,
    ComputationError,
    MGrid,
    MPath,
    RecursiveThreshold,
    ThresholdQuorumSystem,
    exact_failure_probability,
    exact_load,
    load_lower_bound,
    load_optimality_ratio,
    masking_threshold,
    resilience_upper_bound_from_load,
)
from repro.constructions.grid import MaskingGrid
from repro.constructions.threshold import boosting_block
from repro.core.bounds import (
    crash_probability_lower_bound,
    crash_probability_lower_bound_for_system,
    load_lower_bound_for_system,
    optimal_quorum_size,
)


class TestLoadLowerBound:
    def test_corollary_4_2_value(self):
        assert load_lower_bound(100, 2) == pytest.approx(math.sqrt(5 / 100))

    def test_theorem_4_1_with_quorum_size(self):
        # max{(2b+1)/c, c/n} with b=2, c=10, n=100 -> max{0.5, 0.1}.
        assert load_lower_bound(100, 2, quorum_size=10) == pytest.approx(0.5)
        assert load_lower_bound(100, 2, quorum_size=40) == pytest.approx(0.4)

    def test_bound_tight_at_optimal_quorum_size(self):
        n, b = 144, 4
        c = optimal_quorum_size(n, b)
        assert load_lower_bound(n, b, quorum_size=int(c)) == pytest.approx(
            load_lower_bound(n, b), rel=0.05
        )

    def test_regular_case_reduces_to_nw98(self):
        # b = 0 gives the Naor-Wool 1/sqrt(n) bound.
        assert load_lower_bound(64, 0) == pytest.approx(1 / 8)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ComputationError):
            load_lower_bound(0, 1)
        with pytest.raises(ComputationError):
            load_lower_bound(10, -1)
        with pytest.raises(ComputationError):
            load_lower_bound(10, 1, quorum_size=11)

    def test_every_construction_respects_the_bound(self, mgrid_7_3, rt_4_3_depth2):
        systems_and_b = [
            (mgrid_7_3, 3),
            (rt_4_3_depth2, rt_4_3_depth2.masking_bound()),
            (masking_threshold(13, 3), 3),
            (BoostedFPP(2, 1), 1),
            (MPath(7, 3), 3),
        ]
        for system, b in systems_and_b:
            assert system.load() >= load_lower_bound(system.n, b) - 1e-9

    def test_lp_load_respects_theorem_4_1(self, mgrid_7_3):
        lp = exact_load(mgrid_7_3).load
        assert lp >= load_lower_bound_for_system(mgrid_7_3, 3) - 1e-9

    def test_optimality_ratio(self):
        # M-Grid's load is within a small constant of the bound (Prop 5.2).
        system = MGrid(8, 3)
        ratio = load_optimality_ratio(system.n, 3, system.load())
        assert 1.0 <= ratio <= 2.0

    def test_optimality_ratio_rejects_degenerate_bound(self):
        with pytest.raises(ComputationError):
            load_optimality_ratio(0, 1, 0.5)


class TestCrashProbabilityLowerBounds:
    def test_proposition_4_3(self):
        assert crash_probability_lower_bound(0.1, min_transversal=3) == pytest.approx(1e-3)

    def test_proposition_4_4(self):
        assert crash_probability_lower_bound(0.1, quorum_size=7, b=2) == pytest.approx(1e-3)

    def test_proposition_4_5(self):
        assert crash_probability_lower_bound(0.1, b=2, balanced=True) == pytest.approx(1e-3)

    def test_strongest_bound_wins(self):
        value = crash_probability_lower_bound(
            0.1, min_transversal=5, quorum_size=8, b=3, balanced=True
        )
        # p^(b+1) = 1e-4 is the largest of {1e-5, 1e-2... wait c-2b=2 -> 1e-2}.
        assert value == pytest.approx(0.1 ** 2)

    def test_requires_some_parameters(self):
        with pytest.raises(ComputationError):
            crash_probability_lower_bound(0.1)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ComputationError):
            crash_probability_lower_bound(1.2, min_transversal=2)
        with pytest.raises(ComputationError):
            crash_probability_lower_bound(0.1, min_transversal=0)
        with pytest.raises(ComputationError):
            crash_probability_lower_bound(0.1, quorum_size=4, b=2)

    def test_exact_fp_respects_bound_for_threshold(self, mr98_threshold):
        p = 0.15
        bound = crash_probability_lower_bound_for_system(mr98_threshold, p, b=3)
        assert mr98_threshold.crash_probability(p) >= bound

    def test_exact_fp_respects_bound_for_rt(self, rt_4_3_depth2):
        p = 0.2
        bound = crash_probability_lower_bound(
            p, min_transversal=rt_4_3_depth2.min_transversal_size()
        )
        assert rt_4_3_depth2.crash_probability(p) >= bound


class TestTradeoffBound:
    def test_resilience_bounded_by_n_times_load(self):
        assert resilience_upper_bound_from_load(100, 0.25) == pytest.approx(25)

    def test_rejects_invalid(self):
        with pytest.raises(ComputationError):
            resilience_upper_bound_from_load(0, 0.5)
        with pytest.raises(ComputationError):
            resilience_upper_bound_from_load(10, 1.5)

    def test_constructions_respect_tradeoff(self, mgrid_7_3, rt_4_3_depth2):
        for system in (mgrid_7_3, rt_4_3_depth2, masking_threshold(17, 4), MPath(7, 3)):
            resilience = system.min_transversal_size() - 1
            assert resilience <= resilience_upper_bound_from_load(system.n, system.load()) + 1e-9


class TestSection4Regenerations:
    """Theorem 4.1 / Corollary 4.2 against every construction near n = 256,
    and Propositions 4.3-4.5 against exactly computable crash probabilities."""

    def test_load_against_corollary_4_2(self):
        n_side, n = 16, 256
        rt = RecursiveThreshold(4, 3, 4)
        entries = [
            ("Threshold", masking_threshold(n, (n - 1) // 4), (n - 1) // 4),
            ("Threshold b=1", masking_threshold(n, 1), 1),
            ("Grid", MaskingGrid(n_side, (n_side - 1) // 3), (n_side - 1) // 3),
            ("M-Grid", MGrid(n_side, (n_side - 1) // 2), (n_side - 1) // 2),
            ("RT(4,3)", rt, rt.masking_bound()),
            ("boostFPP", BoostedFPP(3, (n // 13 - 1) // 4), (n // 13 - 1) // 4),
            ("M-Path", MPath(n_side, 7), 7),
        ]
        ratios = {}
        for name, system, b in entries:
            bound = load_lower_bound(system.n, b)
            assert system.load() >= bound - 1e-12, name
            ratios[name] = system.load() / bound
        # Load-optimal systems: within a small constant of the bound.
        assert ratios["M-Grid"] <= 2.0
        assert ratios["boostFPP"] <= 1.6
        assert ratios["M-Path"] <= 2.0
        # The remark after Corollary 4.2: Threshold is close to optimal when
        # b = Omega(n), but far from optimal for small b (its load never drops
        # below 1/2 while the bound shrinks like 1/sqrt(n)).
        assert ratios["Threshold"] <= 1.2
        assert ratios["Threshold b=1"] > 3.0

    @pytest.mark.parametrize(
        "system",
        [
            masking_threshold(13, 3),
            MGrid(7, 3),
            RecursiveThreshold(4, 3, 2),
            BoostedFPP(2, 1).to_explicit(),
            MaskingGrid(5, 1),
        ],
        ids=lambda system: system.name,
    )
    def test_exact_load_is_c_over_n_on_fair_systems(self, system):
        """Ablation: the exact LP equals Proposition 3.9's c/n."""
        closed_form = system.min_quorum_size() / system.n
        assert exact_load(system).load == pytest.approx(closed_form, abs=1e-6)

    @pytest.mark.parametrize("n,b", [(64, 1), (64, 15)])
    def test_theorem_4_1_takes_the_larger_branch(self, n, b):
        """(2b+1)/c binds for small quorums, c/n for large ones."""
        system = masking_threshold(n, b)
        c = system.min_quorum_size()
        bound = load_lower_bound(system.n, b, quorum_size=c)
        assert bound == pytest.approx(max((2 * b + 1) / c, c / system.n))
        assert system.load() >= bound - 1e-12

    @pytest.mark.parametrize(
        "system",
        [
            masking_threshold(13, 3),
            ThresholdQuorumSystem(9, 7),
            boosting_block(2),
            RecursiveThreshold(4, 3, 2),
        ],
        ids=lambda system: system.name,
    )
    @pytest.mark.parametrize("p", [0.1, 0.2, 0.35])
    def test_exact_fp_dominates_propositions_4_3_to_4_5(self, system, p):
        """Fp >= p^(f+1), p^(c-2b), p^(b+1) on exactly computable systems."""
        exact = exact_failure_probability(system, p).value
        assert exact >= crash_probability_lower_bound_for_system(system, p) - 1e-12
