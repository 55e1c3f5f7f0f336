"""Unit tests for the grid constructions: RegularGrid and the [MR98a] MaskingGrid."""

from __future__ import annotations

import pytest

from repro import ConstructionError, MaskingGrid, RegularGrid, exact_load, verify_masking
from repro.constructions.grid import grid_side_for, render_grid_quorum
from repro.core.quorum_system import QuorumSystem


class TestGridSideHelper:
    def test_perfect_squares(self):
        assert grid_side_for(49) == 7
        assert grid_side_for(1024) == 32

    def test_non_squares_rejected(self):
        with pytest.raises(ConstructionError):
            grid_side_for(50)


class TestRegularGrid:
    def test_parameters_match_enumeration(self, regular_grid_4):
        explicit = regular_grid_4.to_explicit()
        assert regular_grid_4.num_quorums() == 16 == explicit.num_quorums()
        assert explicit.min_quorum_size() == regular_grid_4.min_quorum_size() == 7
        assert explicit.min_intersection_size() == regular_grid_4.min_intersection_size() == 2
        assert explicit.min_transversal_size() == regular_grid_4.min_transversal_size() == 4

    def test_it_is_a_valid_regular_system(self, regular_grid_4):
        regular_grid_4.to_explicit().validate()
        assert regular_grid_4.masking_bound() == 0

    def test_load_formula_and_lp_agree(self, regular_grid_4):
        assert regular_grid_4.load() == pytest.approx(7 / 16)
        assert exact_load(regular_grid_4).load == pytest.approx(7 / 16, abs=1e-6)

    def test_small_side_rejected(self):
        with pytest.raises(ConstructionError):
            RegularGrid(1)

    def test_sample_quorum_is_row_plus_column(self, regular_grid_4, rng):
        quorum = regular_grid_4.sample_quorum(rng)
        assert quorum in set(regular_grid_4.quorums())

    def test_crash_probability_monotone(self, regular_grid_4, rng):
        low = regular_grid_4.crash_probability(0.05, trials=3000, rng=rng)
        high = regular_grid_4.crash_probability(0.5, trials=3000, rng=rng)
        assert low < high


class TestMaskingGrid:
    def test_figure_parameters(self, masking_grid_9_2):
        # side = 9, b = 2: quorums are one column plus five full rows.
        assert masking_grid_9_2.n == 81
        assert masking_grid_9_2.min_quorum_size() == 5 * 9 + 4
        assert masking_grid_9_2.min_transversal_size() == 9 - 4
        assert masking_grid_9_2.num_quorums() == 9 * 126

    def test_masking_verified_literally_on_a_small_instance(self):
        system = MaskingGrid(5, 1)
        verify_masking(system, 1)
        assert system.is_b_masking(1)

    def test_analytic_values_match_enumeration_small(self):
        system = MaskingGrid(5, 1)
        explicit = system.to_explicit()
        assert explicit.min_quorum_size() == system.min_quorum_size() == 3 * 5 + 2
        assert explicit.min_transversal_size() == system.min_transversal_size() == 3
        assert explicit.min_intersection_size() == system.min_intersection_size()

    @pytest.mark.parametrize(
        "side, b",
        [(side, b) for side in range(2, 12) for b in range(side) if 3 * b + 1 <= side],
    )
    def test_intersection_closed_form_matches_enumeration(self, side, b):
        # Includes the sides where two quorums' 2b+1 rows must overlap.
        system = MaskingGrid(side, b)
        assert system.min_intersection_size() == QuorumSystem.min_intersection_size(system)

    def test_overlapping_rows_have_a_masking_bound(self):
        # 2(2b+1) = 42 > 31: every two quorums share 11 rows.  The
        # enumerating fallback refused this system (C(31, 21) * 31 quorums).
        system = MaskingGrid(31, 10)
        assert system.min_intersection_size() == 11 * 31 + 2 * 10 == 361
        assert system.masking_bound() == 10

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ConstructionError):
            MaskingGrid(5, 3)   # 2b+1 = 7 > 5
        with pytest.raises(ConstructionError):
            MaskingGrid(7, 3)   # resilience 0 < b
        with pytest.raises(ConstructionError):
            MaskingGrid(9, -1)

    def test_load_close_to_2b_over_sqrt_n(self, masking_grid_9_2):
        # Table 2: load ~ (2b+2)/sqrt(n).
        assert masking_grid_9_2.load() == pytest.approx(49 / 81)
        assert masking_grid_9_2.load() == pytest.approx((2 * 2 + 2) / 9, rel=0.25)

    def test_fairness(self, masking_grid_9_2):
        # All quorums have equal size; degrees are equal by row/column symmetry.
        explicit = MaskingGrid(5, 1).to_explicit()
        assert explicit.fairness() is not None

    def test_availability_degrades_with_size(self, rng):
        # Table 2: Fp -> 1 as n grows (for fixed p).
        small = MaskingGrid(5, 1).crash_probability(0.15, trials=4000, rng=rng)
        large = MaskingGrid(11, 1).crash_probability(0.15, trials=4000, rng=rng)
        assert large > small

    def test_sample_quorum_structure(self, masking_grid_9_2, rng):
        quorum = masking_grid_9_2.sample_quorum(rng)
        assert len(quorum) == masking_grid_9_2.min_quorum_size()


class TestRendering:
    def test_render_marks_quorum_cells(self):
        quorum = frozenset({(0, 0), (0, 1), (1, 0)})
        picture = render_grid_quorum(2, quorum)
        lines = picture.splitlines()
        assert lines[0] == "# #"
        assert lines[1] == "# ."

    def test_render_size(self):
        picture = render_grid_quorum(4, frozenset())
        assert len(picture.splitlines()) == 4
