"""Unit tests for the percolation substrate (lattice, crossings, critical point)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.percolation.site as site
from repro import ComputationError, ConstructionError
from repro.percolation import (
    TriangularGrid,
    count_disjoint_crossings,
    count_witnessed_trials,
    estimate_critical_probability,
    estimate_crossing_probability,
    fixed_point_of_reliability,
    has_open_crossing,
    sample_open_vertices,
)


class TestTriangularGrid:
    def test_vertex_count(self):
        assert TriangularGrid(5).num_vertices == 25
        assert len(list(TriangularGrid(4).vertices())) == 16

    def test_side_too_small_rejected(self):
        with pytest.raises(ConstructionError):
            TriangularGrid(1)

    def test_neighbour_structure_matches_paper_triangulation(self):
        grid = TriangularGrid(4)
        # Interior vertex has six neighbours: (i, j±1), (i±1, j), (i-1, j+1), (i+1, j-1).
        assert set(grid.neighbours((2, 2))) == {
            (2, 3), (2, 1), (3, 2), (1, 2), (1, 3), (3, 1),
        }
        # Corner vertices.
        assert set(grid.neighbours((1, 1))) == {(1, 2), (2, 1)}
        assert set(grid.neighbours((4, 4))) == {(4, 3), (3, 4)}

    def test_adjacency_is_symmetric(self):
        grid = TriangularGrid(4)
        for vertex in grid.vertices():
            for neighbour in grid.neighbours(vertex):
                assert vertex in grid.neighbours(neighbour)

    def test_boundaries(self):
        grid = TriangularGrid(3)
        assert grid.left_side() == [(1, 1), (1, 2), (1, 3)]
        assert grid.right_side() == [(3, 1), (3, 2), (3, 3)]
        assert grid.bottom_side() == [(1, 1), (2, 1), (3, 1)]
        assert grid.top_side() == [(1, 3), (2, 3), (3, 3)]

    def test_rows_and_columns_are_paths(self):
        grid = TriangularGrid(5)
        assert grid.is_lr_path(grid.row(2))
        assert grid.is_tb_path(grid.column(3))
        assert not grid.is_lr_path(grid.column(3))

    def test_invalid_row_or_column_rejected(self):
        grid = TriangularGrid(3)
        with pytest.raises(ConstructionError):
            grid.row(0)
        with pytest.raises(ConstructionError):
            grid.column(4)

    def test_is_path_rejects_disconnected_or_repeated(self):
        grid = TriangularGrid(4)
        assert not grid._is_path([(1, 1), (3, 3)])
        assert not grid._is_path([(1, 1), (2, 1), (1, 1)])
        assert not grid._is_path([])


class TestCrossings:
    def test_fully_open_grid_crosses(self):
        grid = TriangularGrid(4)
        vertices = set(grid.vertices())
        assert has_open_crossing(grid, vertices, direction="lr")
        assert has_open_crossing(grid, vertices, direction="tb")
        assert count_disjoint_crossings(grid, vertices, direction="lr") == 4

    def test_fully_closed_grid_does_not_cross(self):
        grid = TriangularGrid(4)
        assert not has_open_crossing(grid, set(), direction="lr")
        assert count_disjoint_crossings(grid, set(), direction="tb") == 0

    def test_single_open_row_gives_one_crossing(self):
        grid = TriangularGrid(5)
        open_vertices = set(grid.row(3))
        assert has_open_crossing(grid, open_vertices, direction="lr")
        assert not has_open_crossing(grid, open_vertices, direction="tb")
        assert count_disjoint_crossings(grid, open_vertices, direction="lr") == 1

    def test_closed_column_blocks_lr_crossings(self):
        grid = TriangularGrid(5)
        open_vertices = {v for v in grid.vertices() if v[0] != 3}
        assert not has_open_crossing(grid, open_vertices, direction="lr")
        # TB crossings survive on either side of the closed column.
        assert has_open_crossing(grid, open_vertices, direction="tb")

    def test_diagonal_edge_enables_crossing(self):
        # A staircase using the (i+1, j-1) diagonal: (1,2) -> (2,1) is an edge
        # of the triangulation, so this two-vertex-per-column path crosses.
        grid = TriangularGrid(3)
        open_vertices = {(1, 2), (2, 1), (3, 1)}
        assert has_open_crossing(grid, open_vertices, direction="lr")

    def test_one_long_crossing_does_not_exhaust_the_stack(self, snake_40):
        grid = TriangularGrid(40)
        assert len(snake_40) == 820
        assert count_disjoint_crossings(grid, snake_40, direction="lr") == 1
        assert count_disjoint_crossings(grid, snake_40, direction="tb") == 20
        assert count_disjoint_crossings(grid, snake_40, direction="tb", limit=3) == 3
        assert has_open_crossing(grid, snake_40, direction="lr")

    def test_unknown_direction_rejected(self):
        grid = TriangularGrid(3)
        with pytest.raises(ComputationError):
            has_open_crossing(grid, set(grid.vertices()), direction="diagonal")
        with pytest.raises(ComputationError):
            count_disjoint_crossings(grid, set(grid.vertices()), direction="diagonal")


class TestSamplingAndEstimation:
    def test_sample_extremes(self, rng):
        grid = TriangularGrid(4)
        assert sample_open_vertices(grid, 0.0, rng) == set(grid.vertices())
        assert sample_open_vertices(grid, 1.0, rng) == set()

    @pytest.mark.parametrize("side, p_closed", [(2, 0.5), (7, 0.1), (12, 0.45)])
    def test_sample_reads_the_draw_vertex_by_vertex(self, side, p_closed):
        grid = TriangularGrid(side)
        draws = np.random.default_rng(99).random((side, side))
        expected = {(i, j) for i, j in grid.vertices() if draws[i - 1, j - 1] >= p_closed}
        assert sample_open_vertices(grid, p_closed, np.random.default_rng(99)) == expected

    def test_sample_rejects_invalid_probability(self, rng):
        with pytest.raises(ComputationError):
            sample_open_vertices(TriangularGrid(3), 1.5, rng)

    def test_crossing_probability_monotone_in_p(self, rng):
        grid = TriangularGrid(7)
        low = estimate_crossing_probability(grid, 0.1, trials=120, rng=rng).probability
        high = estimate_crossing_probability(grid, 0.7, trials=120, rng=rng).probability
        assert low > high

    def test_multi_crossing_estimate(self, rng):
        grid = TriangularGrid(6)
        single = estimate_crossing_probability(
            grid, 0.2, trials=80, min_disjoint=1, rng=rng
        ).probability
        triple = estimate_crossing_probability(
            grid, 0.2, trials=80, min_disjoint=3, rng=rng
        ).probability
        assert triple <= single

    def test_invalid_trials_rejected(self, rng):
        with pytest.raises(ComputationError):
            estimate_crossing_probability(TriangularGrid(4), 0.2, trials=0, rng=rng)


class _FixedDraws:
    """A stand-in generator whose ``random`` returns one fixed batch of draws."""

    def __init__(self, draws: np.ndarray):
        self.draws = draws

    def random(self, shape):
        assert shape == self.draws.shape
        return self.draws


class TestWitnessedTrials:
    #: ``estimate_crossing_probability`` when every sample ran a search:
    #: (side, direction, min_disjoint) -> (p = 0.1, p = 0.4), 100 trials, seed 5.
    PINNED = {
        (6, "lr", 1): (1.0, 0.79),
        (6, "lr", 3): (0.93, 0.09),
        (6, "tb", 1): (1.0, 0.73),
        (6, "tb", 3): (1.0, 0.04),
        (9, "lr", 1): (1.0, 0.84),
        (9, "lr", 3): (0.99, 0.08),
        (9, "tb", 1): (1.0, 0.85),
        (9, "tb", 3): (0.99, 0.11),
    }

    @pytest.mark.parametrize("side, direction, min_disjoint", PINNED)
    def test_estimates_are_the_per_sample_searches(self, side, direction, min_disjoint):
        grid = TriangularGrid(side)
        estimates = tuple(
            estimate_crossing_probability(
                grid, p, trials=100, min_disjoint=min_disjoint, direction=direction,
                rng=np.random.default_rng(5),
            ).probability
            for p in (0.1, 0.4)
        )
        assert estimates == self.PINNED[side, direction, min_disjoint]

    @pytest.mark.parametrize("rows, columns", [(0, 0), (1, 0), (2, 2), (0, 3)])
    def test_batches_read_the_per_trial_stream(self, monkeypatch, rows, columns):
        # Three trials per batch, so ten trials cross three batch boundaries.
        monkeypatch.setattr(site, "_BATCH_DRAWS", 50)
        grid = TriangularGrid(4)

        def holds(open_vertices):
            return (
                count_disjoint_crossings(grid, open_vertices, direction="lr", limit=rows) >= rows
                and count_disjoint_crossings(grid, open_vertices, direction="tb", limit=columns)
                >= columns
            )

        rng = np.random.default_rng(11)
        expected = sum(holds(sample_open_vertices(grid, 0.2, rng)) for _ in range(10))
        rng = np.random.default_rng(11)
        assert count_witnessed_trials(
            grid, 0.2, 10, rng, rows=rows, columns=columns, holds=holds
        ) == expected
        # The generator is left where the per-trial loop leaves it.
        assert rng.random() == np.random.default_rng(11).random(161)[-1]

    @settings(max_examples=200, deadline=None)
    @given(
        side=st.integers(2, 7),
        rows=st.integers(0, 4),
        columns=st.integers(0, 4),
        data=st.data(),
    )
    def test_a_witnessed_trial_has_the_crossings(self, side, rows, columns, data):
        grid = TriangularGrid(side)
        closed = data.draw(
            st.lists(st.booleans(), min_size=side * side, max_size=side * side)
        )
        draws = np.where(closed, 0.1, 0.9).reshape(1, side, side)
        searched = []
        witnessed = count_witnessed_trials(
            grid, 0.5, 1, _FixedDraws(draws), rows=rows, columns=columns,
            holds=lambda open_vertices: searched.append(open_vertices) or False,
        )
        open_vertices = {(i, j) for i, j in grid.vertices() if draws[0, i - 1, j - 1] >= 0.5}
        if witnessed:
            assert searched == []
            assert count_disjoint_crossings(grid, open_vertices, direction="lr") >= rows
            assert count_disjoint_crossings(grid, open_vertices, direction="tb") >= columns
        else:
            assert searched == [open_vertices]

    def test_unknown_direction_rejected_before_drawing(self):
        with pytest.raises(ComputationError, match="unknown crossing direction 'diagonal'"):
            estimate_crossing_probability(TriangularGrid(3), 0.2, direction="diagonal", rng=0)


class TestCriticalPoint:
    def test_estimate_lands_near_one_half(self, rng):
        estimate = estimate_critical_probability(
            side=10, trials_per_point=80, iterations=7, rng=rng
        )
        assert 0.3 < estimate.critical_probability < 0.7

    def test_rt_block_fixed_point_matches_paper(self):
        # g(p) = 6p^2 - 8p^3 + 3p^4 has its non-trivial fixed point at 0.2324.
        def g(p):
            return 6 * p ** 2 - 8 * p ** 3 + 3 * p ** 4

        assert fixed_point_of_reliability(g) == pytest.approx(0.2324, abs=5e-4)

    def test_majority_block_fixed_point_is_one_half(self):
        from scipy import stats

        def g(p):
            return float(stats.binom.sf(1, 3, p))  # 2-of-3 block

        assert fixed_point_of_reliability(g) == pytest.approx(0.5, abs=1e-6)

    def test_non_s_shaped_function_rejected(self):
        with pytest.raises(ComputationError):
            fixed_point_of_reliability(lambda p: p / 2 + 0.4)
