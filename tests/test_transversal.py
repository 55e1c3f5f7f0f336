"""Unit tests for minimal transversals (Definition 3.3) and resilience."""

from __future__ import annotations

import pytest

from repro import ComputationError
from repro.core.bitset import mask_to_frozenset
from repro.core.transversal import (
    greedy_transversal,
    is_transversal,
    minimal_transversal,
    minimal_transversal_mask,
    minimal_transversal_size,
)


class TestIsTransversal:
    def test_accepts_hitting_set(self):
        sets = [frozenset({0, 1}), frozenset({1, 2})]
        assert is_transversal({1}, sets)
        assert is_transversal({0, 2}, sets)

    def test_rejects_missing_set(self):
        sets = [frozenset({0, 1}), frozenset({2, 3})]
        assert not is_transversal({0}, sets)

    def test_empty_collection_is_trivially_hit(self):
        assert is_transversal(set(), [])


class TestGreedy:
    def test_greedy_is_a_transversal(self):
        sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
        result = greedy_transversal(sets)
        assert is_transversal(result, sets)

    def test_greedy_finds_obvious_common_element(self):
        sets = [frozenset({5, i}) for i in range(4)]
        assert greedy_transversal(sets) == frozenset({5})


class TestExact:
    def test_single_common_element(self):
        sets = [frozenset({2, i}) for i in (0, 1, 3, 4)]
        assert minimal_transversal(sets) == frozenset({2})

    def test_disjoint_sets_need_one_each(self):
        sets = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
        assert minimal_transversal_size(sets) == 3

    def test_threshold_system_transversal(self, threshold_9_7):
        # MT of k-of-n is n - k + 1 = 3.
        quorums = threshold_9_7.quorums()
        assert minimal_transversal_size(quorums) == 3

    def test_mgrid_transversal(self, mgrid_7_3):
        # MT of M-Grid is side - k + 1 = 7 - 2 + 1 = 6.
        assert minimal_transversal_size(mgrid_7_3.quorums()) == 6

    def test_result_is_transversal_and_minimal_certificate(self, rt_4_3_depth2):
        quorums = rt_4_3_depth2.quorums()
        result = minimal_transversal(quorums)
        assert is_transversal(result, quorums)
        assert len(result) == 4  # (k - l + 1)^h = 2^2

    def test_engines_agree(self, simple_system):
        quorums = simple_system.quorums()
        milp = minimal_transversal(quorums, engine="milp")
        bnb = minimal_transversal(quorums, engine="branch-and-bound")
        assert len(milp) == len(bnb) == 1

    def test_engines_agree_on_fano_plane(self, fpp_order2):
        quorums = fpp_order2.quorums()
        assert (
            minimal_transversal_size(quorums, engine="milp")
            == minimal_transversal_size(quorums, engine="branch-and-bound")
            == 3
        )
        for engine in ("milp", "branch-and-bound"):
            mask = minimal_transversal_mask(fpp_order2.quorum_masks(), engine=engine)
            assert mask.bit_count() == 3
            assert is_transversal(mask_to_frozenset(mask, fpp_order2.universe), quorums)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ComputationError):
            minimal_transversal([frozenset({0})], engine="quantum")

    def test_empty_set_in_input_rejected(self):
        with pytest.raises(ComputationError):
            minimal_transversal([frozenset()])

    def test_empty_collection_has_empty_transversal(self):
        assert minimal_transversal([]) == frozenset()

    def test_max_sets_guard(self):
        sets = [frozenset({0, i}) for i in range(1, 30)]
        with pytest.raises(ComputationError):
            minimal_transversal(sets, max_sets=10)


class TestResilience:
    def test_resilience_is_mt_minus_one(self, mgrid_7_3):
        assert mgrid_7_3.to_explicit().resilience() == 5

    def test_crashing_a_minimal_transversal_kills_every_quorum(self, rt_4_3_depth2):
        transversal = rt_4_3_depth2.to_explicit().minimal_transversal()
        assert rt_4_3_depth2.to_explicit().restricted_to_alive(transversal) is None

    def test_crashing_fewer_servers_leaves_a_quorum(self, rt_4_3_depth2):
        explicit = rt_4_3_depth2.to_explicit()
        transversal = explicit.minimal_transversal()
        smaller = set(transversal)
        smaller.pop()
        assert explicit.restricted_to_alive(smaller) is not None
