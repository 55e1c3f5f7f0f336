"""Unit tests for the projective-plane substrate and the FPP quorum system."""

from __future__ import annotations

import dataclasses

import pytest

from repro import ConstructionError, FiniteProjectivePlane, exact_load
from repro.gf.projective_plane import projective_plane


class TestIncidenceStructure:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_axioms_hold(self, q):
        plane = projective_plane(q)
        plane.verify()
        assert plane.num_points == q * q + q + 1
        assert plane.line_size == q + 1

    def test_every_point_on_q_plus_one_lines(self):
        plane = projective_plane(3)
        for point_index in range(plane.num_points):
            assert len(plane.lines_through(point_index)) == 4

    def test_two_points_determine_one_line(self):
        plane = projective_plane(2)
        for first in range(plane.num_points):
            for second in range(first + 1, plane.num_points):
                containing = [
                    line for line in plane.lines if first in line and second in line
                ]
                assert len(containing) == 1

    def test_non_prime_power_order_rejected(self):
        with pytest.raises(ConstructionError):
            projective_plane(6)

    def test_each_order_is_built_once_and_frozen(self):
        first, second = FiniteProjectivePlane(3), FiniteProjectivePlane(3)
        assert first.plane is second.plane is projective_plane(3)
        assert projective_plane(2) is not first.plane
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.plane.lines = ()  # type: ignore[misc]

    def test_point_index_roundtrip(self):
        plane = projective_plane(2)
        for index, point in enumerate(plane.points):
            assert plane.point_index(point) == index


class TestFPPQuorumSystem:
    def test_fano_plane_parameters(self, fpp_order2):
        assert fpp_order2.n == 7
        assert fpp_order2.num_quorums() == 7
        assert fpp_order2.min_quorum_size() == 3
        assert fpp_order2.min_intersection_size() == 1
        assert fpp_order2.min_transversal_size() == 3

    def test_analytic_values_match_enumeration(self, fpp_order3):
        explicit = fpp_order3.to_explicit()
        assert explicit.min_quorum_size() == fpp_order3.min_quorum_size() == 4
        assert explicit.min_intersection_size() == fpp_order3.min_intersection_size() == 1
        assert explicit.min_transversal_size() == fpp_order3.min_transversal_size() == 4

    def test_it_is_a_valid_regular_quorum_system(self, fpp_order3):
        fpp_order3.to_explicit().validate()
        assert fpp_order3.masking_bound() == 0

    def test_load_is_optimal_for_regular_systems(self, fpp_order3):
        # L(FPP) = (q+1)/n ~ 1/sqrt(n), and the LP agrees (the system is fair).
        assert fpp_order3.load() == pytest.approx(4 / 13)
        assert exact_load(fpp_order3).load == pytest.approx(4 / 13, abs=1e-6)

    def test_fairness(self, fpp_order2):
        size, degree = fpp_order2.to_explicit().fairness()
        assert size == 3
        assert degree == 3

    def test_crash_probability_upper_bound(self, fpp_order2):
        assert fpp_order2.crash_probability_upper_bound(0.1) == pytest.approx(0.3)
        assert fpp_order2.crash_probability_upper_bound(0.9) == 1.0

    def test_crash_probability_bound_actually_bounds(self, fpp_order2):
        from repro import exact_failure_probability

        for p in (0.05, 0.1, 0.2):
            exact = exact_failure_probability(fpp_order2, p).value
            assert exact <= fpp_order2.crash_probability_upper_bound(p) + 1e-12

    def test_sample_quorum_is_a_line(self, fpp_order3, rng):
        lines = set(fpp_order3.quorums())
        assert fpp_order3.sample_quorum(rng) in lines
