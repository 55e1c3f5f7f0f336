"""Unit tests for the quorum-system abstraction (Definitions 3.1-3.5)."""

from __future__ import annotations

import pytest

from repro import (
    ComputationError,
    ExplicitQuorumSystem,
    InvalidQuorumSystemError,
    MGrid,
    MPath,
    Universe,
    exact_load,
)


class TestExplicitConstruction:
    def test_accepts_iterables_and_normalises(self):
        system = ExplicitQuorumSystem(range(3), [[0, 1], (1, 2)])
        assert set(system.quorums()) == {frozenset({0, 1}), frozenset({1, 2})}

    def test_deduplicates_quorums(self):
        system = ExplicitQuorumSystem(range(3), [{0, 1}, {1, 0}, {1, 2}])
        assert system.num_quorums() == 2

    def test_rejects_non_intersecting_quorums(self):
        with pytest.raises(InvalidQuorumSystemError):
            ExplicitQuorumSystem(range(4), [{0, 1}, {2, 3}])

    def test_rejects_empty_quorum(self):
        with pytest.raises(InvalidQuorumSystemError):
            ExplicitQuorumSystem(range(3), [set(), {0, 1}])

    def test_rejects_elements_outside_universe(self):
        with pytest.raises(InvalidQuorumSystemError):
            ExplicitQuorumSystem(range(3), [{0, 7}])

    def test_rejects_empty_quorum_list(self):
        with pytest.raises(InvalidQuorumSystemError):
            ExplicitQuorumSystem(range(3), [])

    def test_validate_can_be_deferred(self):
        system = ExplicitQuorumSystem(range(4), [{0, 1}, {2, 3}], validate=False)
        with pytest.raises(InvalidQuorumSystemError):
            system.validate()

    def test_accepts_universe_object(self):
        universe = Universe(["a", "b", "c"])
        system = ExplicitQuorumSystem(universe, [{"a", "b"}, {"b", "c"}])
        assert system.universe is universe


class TestMeasures:
    def test_basic_parameters(self, simple_system):
        assert simple_system.n == 5
        assert simple_system.min_quorum_size() == 3
        assert simple_system.max_quorum_size() == 3
        assert simple_system.min_intersection_size() == 1
        # Element 2 alone hits every quorum.
        assert simple_system.min_transversal_size() == 1
        assert simple_system.resilience() == 0

    def test_degrees(self, simple_system):
        degrees = simple_system.degrees()
        assert degrees[2] == 3
        assert degrees[0] == 1
        assert simple_system.degree(2) == 3

    def test_fairness_of_unfair_system(self, simple_system):
        assert simple_system.fairness() is None
        assert not simple_system.is_fair()

    def test_fairness_of_fair_system(self, majority_5):
        size, degree = majority_5.to_explicit().fairness()
        assert size == 3
        assert degree == 6  # C(4, 2)

    def test_singleton_system(self, singleton_system):
        assert singleton_system.min_quorum_size() == 1
        assert singleton_system.min_intersection_size() == 1
        assert singleton_system.min_transversal_size() == 1

    def test_incidence_matrix_shape_and_content(self, simple_system):
        matrix = simple_system.element_index_matrix()
        assert matrix.shape == (3, 5)
        assert matrix.sum() == 9  # three quorums of size three
        # Column of element 2 is all True.
        column = matrix[:, simple_system.universe.index_of(2)]
        assert column.all()


class TestMasking:
    def test_masking_bound_matches_corollary_3_7(self, threshold_9_7):
        # 7-of-9: IS = 5, MT = 3 -> b = min(2, 2) = 2.
        assert threshold_9_7.masking_bound() == 2

    def test_is_b_masking_accepts_up_to_bound(self, threshold_9_7):
        assert threshold_9_7.is_b_masking(0)
        assert threshold_9_7.is_b_masking(2)
        assert not threshold_9_7.is_b_masking(3)

    def test_negative_b_rejected(self, threshold_9_7):
        with pytest.raises(InvalidQuorumSystemError):
            threshold_9_7.is_b_masking(-1)

    def test_regular_system_masks_nothing(self, simple_system):
        assert simple_system.masking_bound() == 0


class TestEnumerationGuards:
    def test_quorum_limit_enforced(self, threshold_9_7):
        with pytest.raises(ComputationError):
            threshold_9_7.quorums(limit=5)

    def test_non_enumerable_system_refuses_quorums(self):
        mpath = MPath(5, 2)
        with pytest.raises(ComputationError):
            mpath.quorums()

    def test_quorums_are_cached(self, simple_system):
        assert simple_system.quorums() is simple_system.quorums()

    def test_enumeration_budget_does_not_depend_on_call_history(self):
        system = MGrid(7, 3)  # 441 quorums
        with pytest.raises(ComputationError, match="more than 100 quorums"):
            exact_load(system, quorum_limit=100)
        assert len(system.quorums()) == 441  # fills both caches
        with pytest.raises(ComputationError, match="more than 100 quorums"):
            exact_load(system, quorum_limit=100)
        with pytest.raises(ComputationError, match="more than 100 quorums"):
            system.quorums(limit=100)
        assert exact_load(system).load == pytest.approx(24 / 49)


class TestSamplingAndConversion:
    def test_sample_quorum_returns_a_quorum(self, simple_system, rng):
        quorum = simple_system.sample_quorum(rng)
        assert quorum in set(simple_system.quorums())

    def test_to_explicit_roundtrip(self, threshold_9_7):
        explicit = threshold_9_7.to_explicit()
        assert explicit.num_quorums() == threshold_9_7.num_quorums()
        assert explicit.min_intersection_size() == threshold_9_7.min_intersection_size()

    def test_equality_and_hash_of_explicit_systems(self):
        first = ExplicitQuorumSystem(range(3), [{0, 1}, {1, 2}])
        second = ExplicitQuorumSystem(range(3), [{1, 2}, {0, 1}])
        assert first == second
        assert len({first, second}) == 1

    def test_restricted_to_alive(self, simple_system):
        survivors = simple_system.restricted_to_alive({0})
        assert survivors is not None
        assert frozenset({0, 1, 2}) not in set(survivors.quorums())
        assert simple_system.restricted_to_alive({2}) is None

    def test_repr_mentions_name(self, simple_system):
        assert "simple" in repr(simple_system)
