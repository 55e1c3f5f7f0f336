"""Unit tests for the evaluation-level analysis: Section 8 comparison, Table 2, trade-offs."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro import (
    ConstructionError,
    MaskingGrid,
    MGrid,
    MPath,
    RecursiveThreshold,
    RegularGrid,
    analytic_failure_probability,
    compose,
    masking_threshold,
)
from repro.analysis import (
    PAPER_FAMILIES,
    TABLE2_SYSTEMS,
    availability_trend,
    candidate_constructions,
    family_system,
    profile_system,
    section8_comparison,
    table2,
    tradeoff_point,
    verify_tradeoff,
)
from repro.analysis.asymptotics import fit_exponential_decay, section45_comparison, sweep
from repro.api import shape_at, spec_of


class TestProfileSystem:
    def test_profile_of_rt_is_exact(self, rng):
        system = RecursiveThreshold(4, 3, 3)
        profile = profile_system(system, 0.1, rng=rng)
        assert profile.crash_probability_kind == "exact"
        assert profile.n == 64
        assert profile.f == system.min_transversal_size() - 1
        assert profile.load == pytest.approx(system.load())

    def test_profile_of_mgrid_uses_lower_bound(self, rng):
        profile = profile_system(MGrid(8, 3), 0.1, rng=rng)
        assert profile.crash_probability_kind == "lower-bound"

    def test_profile_of_mpath_uses_analytic_bound_for_small_p(self, rng):
        profile = profile_system(MPath(8, 3), 0.1, rng=rng)
        assert profile.crash_probability_kind == "upper-bound"

    def test_profile_respects_explicit_b(self, rng):
        profile = profile_system(masking_threshold(17, 4), 0.1, b=4, rng=rng)
        assert profile.b == 4

    @pytest.mark.parametrize("system", [MaskingGrid(7, 1), RegularGrid(5)], ids=["masking-grid", "grid"])
    def test_grid_profile_is_the_exact_value_not_a_sample(self, system):
        # Regression: the grids' crash_probability(p) is an OS-seeded sampler
        # and used to be reported as "exact" (0.2618 then 0.2664 for the
        # masking grid, whose row/column DP value is 0.26530627...).
        first, second = profile_system(system, 0.1), profile_system(system, 0.1)
        assert first == second
        assert first.crash_probability_kind == "exact"
        exact = analytic_failure_probability(system, 0.1).value
        assert first.crash_probability == pytest.approx(exact, abs=1e-12)

    def test_mpath_beyond_its_bound_is_a_labelled_seeded_estimate(self):
        import numpy as np

        profiles = [
            profile_system(MPath(4, 1), 0.4, rng=np.random.default_rng(5)) for _ in range(2)
        ]
        assert profiles[0] == profiles[1]
        assert profiles[0].crash_probability_kind == "monte-carlo"

    def test_bounded_composition_is_labelled_a_bound(self):
        # MPath's closed form is exact only for its straight-line family, so
        # a composition over it is an upper bound, and says so.
        profile = profile_system(compose(masking_threshold(5, 1), MPath(4, 1)), 0.1)
        assert profile.crash_probability_kind == "upper-bound"


class TestSection8:
    def test_comparison_at_small_scale(self, rng):
        profiles = section8_comparison(n=256, p=0.125, rng=rng)
        names = [profile.name for profile in profiles]
        assert len(profiles) == 4
        assert any("M-Grid" in name for name in names)
        assert any("boostFPP" in name for name in names)
        assert any("M-Path" in name for name in names)
        assert any("RT(4,3)" in name for name in names)

    def test_loads_are_comparable_across_systems(self, rng):
        # The whole point of the exercise: every system is configured to a
        # load of roughly the same magnitude.
        profiles = section8_comparison(n=256, p=0.125, rng=rng)
        loads = [profile.load for profile in profiles]
        assert max(loads) <= 3.0 * min(loads)

    def test_availability_ordering_matches_paper(self, rng):
        # At p = 1/8 the paper's ordering is: M-Grid worst, then boostFPP,
        # then M-Path and RT far better.
        profiles = {p.name.split("(")[0]: p for p in section8_comparison(n=1024, p=0.125, rng=rng)}
        mgrid = profiles["M-Grid"].crash_probability
        boost = profiles["boostFPP"].crash_probability
        rt = profiles["RT"].crash_probability
        assert mgrid > 0.5
        assert boost < mgrid
        assert rt < 0.01

    def test_non_square_n_rejected(self, rng):
        with pytest.raises(ConstructionError):
            section8_comparison(n=1000, p=0.1, rng=rng)

    def test_baselines_can_be_included(self, rng):
        profiles = section8_comparison(n=256, p=0.125, rng=rng, include_baselines=True)
        assert len(profiles) == 6


class TestTable2:
    def test_all_six_systems_present(self, rng):
        rows = table2(n=256, p=0.125, rng=rng)
        assert [row.system for row in rows] == list(TABLE2_SYSTEMS)

    def test_masking_and_resilience_columns(self, rng):
        rows = {row.system: row for row in table2(n=256, p=0.125, rng=rng)}
        # Threshold masks the most (b < n/4) and has the largest resilience.
        assert rows["Threshold"].max_b == 63
        assert rows["Threshold"].resilience > 2 * rows["M-Grid"].resilience
        # The grid-shaped systems mask O(sqrt(n)).
        assert rows["M-Grid"].max_b <= 16
        assert rows["M-Path"].max_b <= 16
        assert rows["Grid"].max_b <= 6
        # RT's masking at n = 256 (h = 4) is (2^4 - 1)/2 = 7.
        assert rows["RT(4,3)"].max_b == 7

    def test_load_column_marks_optimal_systems(self, rng):
        rows = {row.system: row for row in table2(n=256, p=0.125, rng=rng)}
        # Threshold's load is at least 1/2 while the load-optimal systems sit
        # within a small factor of the lower bound.
        assert rows["Threshold"].load >= 0.5
        for name in ("M-Grid", "boostFPP", "M-Path"):
            assert rows[name].load_optimal
            assert rows[name].load <= 2.5 * rows[name].load_lower_bound

    def test_availability_column_shape(self, rng):
        rows = {row.system: row for row in table2(n=256, p=0.125, rng=rng)}
        # Threshold and RT are (near) optimally available; Grid and M-Grid poor.
        assert rows["Threshold"].crash_probability < 1e-6
        assert rows["RT(4,3)"].crash_probability < 1e-3
        assert rows["M-Grid"].crash_probability > 0.3
        assert rows["Grid"].crash_probability > 0.3

    def test_non_square_n_rejected(self, rng):
        with pytest.raises(ConstructionError):
            table2(n=200, p=0.1, rng=rng)


class TestAvailabilityTrends:
    def test_grid_like_systems_degrade(self, rng):
        trend = availability_trend("M-Grid", [25, 81, 169], 0.2, rng=rng)
        assert trend[-1] > trend[0]

    def test_threshold_and_rt_improve(self, rng):
        threshold_trend = availability_trend("Threshold", [25, 81, 169], 0.2, rng=rng)
        assert threshold_trend[-1] < threshold_trend[0]
        rt_trend = availability_trend("RT(4,3)", [16, 64, 256], 0.15, rng=rng)
        assert rt_trend[-1] < rt_trend[0]

    def test_asymptotic_fp_column(self):
        """Grid-shaped systems degrade as n grows (Fp -> 1); the rest improve."""
        rng = np.random.default_rng(20240614)
        sizes = [25, 81, 169]
        trends = {
            "M-Grid": availability_trend("M-Grid", sizes, 0.2, rng=rng),
            "Grid": availability_trend("Grid", sizes, 0.2, rng=rng),
            "Threshold": availability_trend("Threshold", sizes, 0.2, rng=rng),
            "RT(4,3)": availability_trend("RT(4,3)", [16, 64, 256], 0.15, rng=rng),
            "boostFPP": availability_trend("boostFPP", sizes, 0.15, rng=rng),
            "M-Path": availability_trend("M-Path", sizes, 0.3, rng=rng),
        }
        assert trends["M-Grid"][-1] > trends["M-Grid"][0]
        assert trends["Grid"][-1] > trends["Grid"][0]
        assert trends["Threshold"][-1] < trends["Threshold"][0]
        assert trends["RT(4,3)"][-1] < trends["RT(4,3)"][0]
        assert trends["boostFPP"][-1] < trends["boostFPP"][0]
        assert trends["M-Path"][-1] <= trends["M-Path"][0] + 0.05  # Monte-Carlo noise

    def test_unknown_system_rejected(self, rng):
        with pytest.raises(ConstructionError):
            availability_trend("Paxos", [16], 0.1, rng=rng)


def _shape(system) -> dict:
    """The size parameters of a built system's canonical spec."""
    params = spec_of(system).params
    return {key: params[key] for key in ("n", "side", "depth", "q") if key in params}


@functools.lru_cache(maxsize=None)
def _consumers(n: int) -> dict:
    """Every analysis consumer of the family table at one size, built once."""
    return {
        "table2": {row.system: row for row in table2(n, 0.125)},
        "section8": dict(
            zip(
                ("M-Grid", "boostFPP", "M-Path", "RT(4,3)", "Threshold", "Grid"),
                section8_comparison(n=n, p=0.125, include_baselines=True),
            )
        ),
        "candidates": {
            spec_of(system).construction: system
            for system in candidate_constructions(n, 1)
        },
    }


class TestOneFamilyTable:
    """Table 2, Sections 4-5, Section 8 and the selector size a family one way."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("name", TABLE2_SYSTEMS)
    def test_every_consumer_builds_the_same_shape(self, name, n):
        family = PAPER_FAMILIES[name]
        expected = {
            key: value
            for key, value in shape_at(family.construction, family.fixed, n).items()
            if key in ("n", "side", "depth", "q")
        }
        consumers = _consumers(n)

        row = consumers["table2"][name]
        behind_row = family_system(name, n, row.max_b)
        assert _shape(behind_row) == expected
        assert behind_row.n == row.n

        assert _shape(family_system(name, n, 1)) == expected

        profile = consumers["section8"][name]
        behind_profile = family_system(name, n, profile.b)
        assert _shape(behind_profile) == expected
        assert (behind_profile.name, behind_profile.n) == (profile.name, profile.n)

        if name != "boostFPP":  # the selector picks boostFPP's plane order itself
            assert _shape(consumers["candidates"][family.construction]) == expected

    @pytest.mark.parametrize("side", range(2, 41))
    def test_largest_b_scan_equals_the_closed_forms(self, side):
        # The oracles are the four closed forms table2 used to carry.
        def ceil_sqrt(value: int) -> int:
            root = math.isqrt(value)
            return root if root * root == value else root + 1

        n = side * side
        mgrid = max(
            b for b in range((side - 1) // 2 + 1) if 2 * ceil_sqrt(b + 1) <= side
        )
        mpath = 0
        while ceil_sqrt(2 * mpath + 3) <= side - mpath - 1:
            mpath += 1
        oracle = {
            "Threshold": (n - 1) // 4,
            "Grid": (side - 1) // 3,
            "M-Grid": mgrid,
            "M-Path": mpath,
        }
        for name, largest in oracle.items():
            assert spec_of(PAPER_FAMILIES[name].at(n)).params["b"] == largest, name

    @pytest.mark.parametrize("p", [0.125, 0.4])
    def test_table2_and_profile_system_quote_the_same_mpath_number(self, p):
        rows = {row.system: row for row in table2(64, p, rng=np.random.default_rng(9))}
        mpath = PAPER_FAMILIES["M-Path"].at(64)
        profile = profile_system(mpath, p, rng=np.random.default_rng(9))
        assert rows["M-Path"].crash_probability == profile.crash_probability
        assert profile.crash_probability_kind == (
            "upper-bound" if p < 1 / 3 else "monte-carlo"
        )


class TestAsymptotics:
    """The Section 4-5 comparison across decades, from closed forms up to n = 10^4."""

    def test_load_exponents_and_availability_trends(self):
        comparison = section45_comparison((64, 256, 1024, 4096, 10000), p=0.1, b=1)
        # The paper's asymptotic load column, as fitted exponents.
        expectations = {
            "Threshold": (-0.05, 0.0),  # L -> 1/2: flat
            "Grid": (-0.55, -0.42),  # Theta(1/sqrt(n))
            "M-Grid": (-0.55, -0.42),
            "M-Path": (-0.55, -0.42),
            "RT(4,3)": (-0.25, -0.15),  # n^-(1 - log_4 3) = n^-0.2075
        }
        for name, (low, high) in expectations.items():
            fit = comparison[name].load_fit
            assert low <= fit.exponent <= high, (name, fit)
            assert fit.r_squared > 0.7, (name, fit)
        # RT's exponent is exactly 1 - log_4(3); the fit nails it.
        rt_exponent = math.log(3, 4) - 1.0
        assert abs(comparison["RT(4,3)"].load_fit.exponent - rt_exponent) < 0.01
        # Table 2's asymptotic Fp column.
        assert comparison["Threshold"].availability_trend == "decaying"
        assert comparison["RT(4,3)"].availability_trend == "decaying"
        assert comparison["Grid"].availability_trend == "degrading"
        assert comparison["M-Grid"].availability_trend == "degrading"

    def test_threshold_and_rt_availability_decay_exponentially(self):
        # p near enough to 1/2 that Fp stays representable across the range.
        points = sweep("Threshold", (64, 144, 256, 400), b=1, p=0.25)
        threshold_fit = fit_exponential_decay(
            [pt.n for pt in points], [pt.failure_probability for pt in points]
        )
        assert threshold_fit.rate > 0.0 and threshold_fit.r_squared > 0.99
        # RT(4,3) decays like exp(-Omega(n^gamma)), gamma = log_4 2 = 1/2
        # (Proposition 5.7: MT = 2^h = n^(1/2) for k=4, l=3).
        points = sweep("RT(4,3)", (64, 256, 1024, 4096), b=1, p=0.2)
        rt_fit = fit_exponential_decay(
            [pt.n for pt in points],
            [pt.failure_probability for pt in points],
            size_exponent=0.5,
        )
        assert rt_fit.rate > 0.0 and rt_fit.r_squared > 0.95


class TestTradeoff:
    def test_every_construction_respects_f_le_nL(self, rng):
        systems = [
            masking_threshold(16, 3),
            MGrid(7, 3),
            RecursiveThreshold(4, 3, 3),
            MPath(8, 3),
        ]
        for system in systems:
            assert verify_tradeoff(system)
            point = tradeoff_point(system)
            assert point.slack >= -1e-9
            assert point.resilience == system.min_transversal_size() - 1

    def test_tradeoff_point_fields(self):
        point = tradeoff_point(masking_threshold(16, 3))
        assert point.n == 16
        assert point.resilience_bound == pytest.approx(16 * point.load)


class TestEmpiricalComparison:
    def test_load_measurement_matches_the_lp(self, rng):
        from repro.analysis import empirical_load_comparison

        comparison = empirical_load_comparison(MGrid(4, 1), b=1, rng=rng)
        assert comparison.optimality_gap == pytest.approx(0.0, abs=1e-9)
        assert comparison.sampling_gap < 0.05
        assert comparison.empirical_load == pytest.approx(
            comparison.analytic_load, abs=0.05
        )

    def test_uniform_strategy_reports_its_own_induced_load(self, rng):
        from repro import ExplicitQuorumSystem
        from repro.analysis import empirical_load_comparison

        triangle = ExplicitQuorumSystem(
            range(3), [{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}], name="triangle"
        )
        comparison = empirical_load_comparison(
            triangle, b=0, rng=rng, strategy="uniform"
        )
        assert comparison.analytic_load == pytest.approx(2 / 3)
        assert comparison.strategy_load == pytest.approx(0.75)
        assert comparison.optimality_gap == pytest.approx(0.75 - 2 / 3)

    def test_availability_measurement_matches_exact_fp(self, rng):
        from repro import ThresholdQuorumSystem, exact_failure_probability
        from repro.analysis import empirical_availability_comparison

        system = ThresholdQuorumSystem(5, 4)
        comparison = empirical_availability_comparison(
            system, 0.2, b=0, trials=250, operations_per_trial=8, rng=rng
        )
        assert comparison.analytic_failure_probability == pytest.approx(
            exact_failure_probability(system, 0.2).value
        )
        assert comparison.gap < 0.06
