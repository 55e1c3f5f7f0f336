"""Unit tests for the M-Path construction (Section 7, Figure 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.percolation.site as site
from repro import (
    ComputationError,
    ConstructionError,
    MGrid,
    MPath,
    Strategy,
    load_lower_bound,
)
from repro.percolation import estimate_critical_probability, sample_open_vertices


class TestConstruction:
    def test_figure3_instance(self, mpath_9_4):
        # Figure 3: a 9x9 grid with b = 4 -> 3 LR and 3 TB paths per quorum.
        assert mpath_9_4.n == 81
        assert mpath_9_4.k == 3

    def test_parameter_validation(self):
        with pytest.raises(ConstructionError):
            MPath(1, 0)
        with pytest.raises(ConstructionError):
            MPath(5, -1)
        with pytest.raises(ConstructionError):
            MPath(3, 5)       # sqrt(2b+1) does not fit
        with pytest.raises(ConstructionError):
            MPath(5, 4)       # resilience 5-3 = 2 < b

    def test_proposition_7_1_bound_on_b(self):
        # b close to (1 - o(1)) sqrt(n) is achievable on larger grids.
        system = MPath(16, 10)
        assert system.masking_bound() >= 10


class TestMeasures:
    def test_proposition_7_1_parameters(self, mpath_9_4):
        assert mpath_9_4.min_intersection_size() == 9       # k^2 >= 2b+1 = 9
        assert mpath_9_4.min_transversal_size() == 9 - 3 + 1
        assert mpath_9_4.min_quorum_size() <= 2 * (81 * 9) ** 0.5
        assert mpath_9_4.masking_bound() == 4

    def test_straight_line_quorums_match_mgrid_shape(self, mpath_5_2):
        subsystem = mpath_5_2.straight_line_subsystem()
        subsystem.validate()
        assert subsystem.min_quorum_size() == mpath_5_2.min_quorum_size()
        # Straight-line quorums of the sub-family already intersect in >= 2b+1.
        assert subsystem.min_intersection_size() >= 2 * mpath_5_2.b + 1

    def test_straight_line_intersection_dominates_analytic_bound(self, mpath_5_2):
        # The analytic value k^2 is a lower bound valid for the full (bent
        # path) family; the straight-line sub-family can only intersect more.
        subsystem = mpath_5_2.straight_line_subsystem()
        assert subsystem.min_intersection_size() >= mpath_5_2.min_intersection_size()

    def test_full_enumeration_is_refused(self, mpath_5_2):
        with pytest.raises(ComputationError):
            mpath_5_2.quorums()

    def test_proposition_7_2_load_is_optimal(self):
        for side, b in [(8, 3), (12, 7), (16, 10)]:
            system = MPath(side, b)
            assert system.load() <= 2.1 * load_lower_bound(system.n, b)

    def test_load_value(self, mpath_9_4):
        fraction = 3 / 9
        assert mpath_9_4.load() == pytest.approx(2 * fraction - fraction ** 2)

    def test_sample_quorum_is_straight_line_quorum(self, mpath_5_2, rng):
        quorums = set(mpath_5_2.straight_line_subsystem().quorums())
        for _ in range(5):
            assert mpath_5_2.sample_quorum(rng) in quorums


class TestSurvival:
    def test_fault_free_grid_survives(self, mpath_5_2):
        assert mpath_5_2.survives(set())

    def test_crashing_a_transversal_kills_the_system(self, mpath_5_2):
        # Crash one vertex in each of side - k + 1 = 3 rows... actually crash
        # whole columns: removing side - k + 1 columns leaves fewer than k
        # possible disjoint TB paths' worth of columns? Use rows instead:
        # crashing 3 full rows leaves only 2 rows, fewer than k = 3 disjoint
        # LR paths cannot exist... they could use diagonal detours, so crash
        # entire columns to block LR paths directly.
        crashed = {(i, j) for i in (1, 2, 3) for j in range(1, 6)}
        # Columns 1..3 fully crashed: at most 0 LR crossings remain.
        assert not mpath_5_2.survives(crashed)

    def test_partial_crashes_leave_quorums(self, mpath_5_2):
        crashed = {(1, 1), (2, 2), (3, 3)}
        assert mpath_5_2.survives(crashed)

    def test_bent_paths_count_toward_survival(self):
        # Crash part of a row so straight-line quorums die but bent paths survive.
        system = MPath(5, 1)  # k = 2
        # Crash three scattered vertices; with only 3/25 vertices down and
        # k = 2, disjoint crossings still exist via detours.
        crashed = {(3, 3), (2, 4), (4, 2)}
        assert system.survives(crashed)


    def test_one_long_crossing_is_not_a_quorum(self, snake_40):
        # LR = 1 < k = 2 although TB = 20.
        system = MPath(40, 1)
        assert not system.survives(set(system.universe.elements) - snake_40)


class TestAvailability:
    #: What the max-flow sampler printed before the search was bounded at k:
    #: (side, b, trials) -> {p: (estimate at seed 0, estimate at seed 7)}.
    PINNED = {
        (7, 1, 200): {0.1: (0.0, 0.0), 0.3: (0.395, 0.39), 0.45: (0.925, 0.905)},
        (7, 3, 200): {0.1: (0.035, 0.04), 0.3: (0.795, 0.82), 0.45: (1.0, 0.98)},
        (12, 2, 120): {
            0.1: (0.0, 0.0),
            0.3: (0.425, 0.43333333333333335),
            0.45: (0.9583333333333334, 0.9833333333333333),
        },
    }

    @pytest.mark.parametrize("side, b, trials", PINNED)
    def test_estimates_are_the_max_flow_samplers(self, side, b, trials):
        system = MPath(side, b)
        for p, pinned in self.PINNED[side, b, trials].items():
            estimates = tuple(
                system.crash_probability(p, trials=trials, rng=np.random.default_rng(seed))
                for seed in (0, 7)
            )
            assert estimates == pinned

    @pytest.mark.parametrize("side, b", [(4, 1), (7, 1), (10, 4)])
    @pytest.mark.parametrize("p", [0.02, 0.1, 0.3, 0.5])
    def test_estimates_equal_the_per_trial_search_loop(self, side, b, p):
        # At p = 0.3 the straight-line witness settles only a few per cent of
        # the trials, so most of them take the search fallback.
        system = MPath(side, b)
        vertices = set(system.universe.elements)
        trials = 80
        for seed in range(5):
            rng = np.random.default_rng(seed)
            failures = sum(
                not system.survives(vertices - sample_open_vertices(system.grid, p, rng))
                for _ in range(trials)
            )
            estimate = system.crash_probability(p, trials=trials, rng=np.random.default_rng(seed))
            assert estimate == failures / trials

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from([(2, 0), (3, 1), (4, 1), (5, 2), (6, 3), (8, 4)]),
        data=st.data(),
    )
    def test_a_straight_line_witness_is_a_surviving_trial(self, shape, data):
        side, b = shape
        system = MPath(side, b)
        closed_rows = data.draw(st.sets(st.integers(1, side)))
        closed_columns = data.draw(st.sets(st.integers(1, side)))
        # Close one vertex of each chosen row and column, plus random extras.
        crashed = {(data.draw(st.integers(1, side)), j) for j in closed_rows}
        crashed |= {(i, data.draw(st.integers(1, side))) for i in closed_columns}
        crashed |= data.draw(st.sets(st.tuples(st.integers(1, side), st.integers(1, side))))
        open_rows = sum(all((i, j) not in crashed for i in range(1, side + 1))
                        for j in range(1, side + 1))
        open_columns = sum(all((i, j) not in crashed for j in range(1, side + 1))
                           for i in range(1, side + 1))
        if open_rows >= system.k and open_columns >= system.k:
            assert system.survives(crashed)

    def test_python_calls_and_searches_of_the_sweep_estimate(self, python_calls, monkeypatch):
        # measure_sweep's M-Path call: every trial ran two disjoint-crossing
        # searches (800) and the estimate cost 31 708 Python calls before the
        # straight-line witness; 346 of the 400 trials now need no search.
        searches = []
        search = site.max_vertex_disjoint_paths

        def counting(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(site, "max_vertex_disjoint_paths", counting)
        system = MPath(7, 1)
        calls, estimate = python_calls(
            lambda: system.crash_probability(
                0.1, trials=400, rng=np.random.default_rng(20240614)
            )
        )
        assert estimate == 0.0
        assert len(searches) == 108
        assert calls <= 6_000, calls

    def test_crash_probability_extremes(self, mpath_5_2, rng):
        assert mpath_5_2.crash_probability(0.0, trials=5, rng=rng) == 0.0
        assert mpath_5_2.crash_probability(1.0, trials=5, rng=rng) == 1.0

    def test_invalid_inputs_rejected(self, mpath_5_2, rng):
        with pytest.raises(ComputationError):
            mpath_5_2.crash_probability(1.5, trials=5, rng=rng)
        with pytest.raises(ComputationError):
            mpath_5_2.crash_probability(0.1, trials=0, rng=rng)

    def test_fp_decreases_with_grid_size_below_threshold(self, rng):
        # Proposition 7.3: for p < 1/2 the crash probability shrinks with n.
        small = MPath(5, 1).crash_probability(0.3, trials=150, rng=rng)
        large = MPath(11, 1).crash_probability(0.3, trials=150, rng=rng)
        assert large <= small + 0.05

    def test_analytic_upper_bound_dominates_monte_carlo(self, rng):
        system = MPath(12, 2)
        p = 0.05
        bound = system.crash_probability_upper_bound(p)
        estimate = system.crash_probability(p, trials=100, rng=rng)
        assert estimate <= bound + 0.05

    def test_upper_bound_requires_small_p(self, mpath_5_2):
        with pytest.raises(ComputationError):
            mpath_5_2.crash_probability_upper_bound(0.4)
        with pytest.raises(ComputationError):
            mpath_5_2.crash_probability_upper_bound(0.1, p_prime=0.05)

    def test_upper_bound_decreases_with_grid_size(self):
        values = [MPath(side, 2).crash_probability_upper_bound(0.05) for side in (8, 16, 24)]
        assert values == sorted(values, reverse=True)


class TestSection7Sweeps:
    """Propositions 7.2 and 7.3 across grid sizes, backed by the percolation substrate."""

    @pytest.mark.parametrize("side,b", [(7, 3), (9, 4), (16, 7), (24, 11), (32, 7)])
    def test_load_follows_proposition_7_2(self, side, b):
        load = MPath(side, b).load()
        bound = load_lower_bound(side * side, b)
        assert load <= 1.15 * 2 * np.sqrt(2 * b + 1) / side
        assert bound - 1e-12 <= load <= 2.1 * bound

    def test_triangulated_percolation_threshold_is_near_one_half(self):
        estimate = estimate_critical_probability(
            side=12, trials_per_point=120, iterations=7, rng=np.random.default_rng(20240614)
        )
        assert 0.35 < estimate.critical_probability < 0.65

    def test_fp_shrinks_with_n_while_mgrid_climbs(self):
        """The paper's contrast at p = 0.3: same load, same masking family."""
        rng = np.random.default_rng(20240614)
        mpath_values, mgrid_values = [], []
        for side in (5, 9, 13):
            mpath_values.append(MPath(side, 1).crash_probability(0.3, trials=120, rng=rng))
            mgrid_values.append(MGrid(side, 1).crash_probability(0.3, trials=4000, rng=rng))
        assert mpath_values[-1] <= mpath_values[0]
        assert mgrid_values[-1] >= mgrid_values[0]
        assert mpath_values[-1] < mgrid_values[-1]

    def test_analytic_bound_dominates_monte_carlo_for_small_p(self):
        """The Theorem B.1/B.3 bound against the disjoint-crossing estimate."""
        rng = np.random.default_rng(20240614)
        for side, b, p in ((16, 2, 0.05), (24, 2, 0.05), (32, 7, 0.125)):
            system = MPath(side, b)
            estimate = system.crash_probability(p, trials=60, rng=rng)
            assert estimate <= system.crash_probability_upper_bound(p) + 0.05

    def test_straight_lines_carry_the_load_and_bent_paths_the_availability(self):
        """Ablation: the straight-line strategy already achieves the optimal load;
        bent paths only matter for availability."""
        rng = np.random.default_rng(20240614)
        system = MPath(9, 4)
        subsystem = system.straight_line_subsystem()
        induced = Strategy.uniform_over_system(subsystem).induced_system_load(system.universe)
        assert induced == pytest.approx(system.load(), abs=1e-9)
        # With 12 crashed vertices scattered on the grid, straight-line quorums
        # frequently die while bent paths survive.
        survived_bent = survived_straight = 0
        for _ in range(40):
            crashed = set()
            while len(crashed) < 12:
                crashed.add((int(rng.integers(1, 10)), int(rng.integers(1, 10))))
            survived_bent += system.survives(crashed)
            survived_straight += any(not q & crashed for q in subsystem.quorums())
        assert survived_bent >= survived_straight
