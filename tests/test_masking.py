"""Unit tests for the literal b-masking checks (Definitions 3.4 and 3.5)."""

from __future__ import annotations

import pytest

from repro import (
    ExplicitQuorumSystem,
    MaskingGrid,
    MaskingViolationError,
    masking_report,
    verify_masking,
)
from repro.api.registry import build
from repro.core.masking import check_consistency, check_resilience


class TestConsistency:
    def test_masking_threshold_consistent(self, mr98_threshold):
        assert check_consistency(mr98_threshold, 3) is None

    def test_violating_pair_returned(self, majority_5):
        # 3-of-5 has intersections of size 1, so it is not even 1-masking.
        pair = check_consistency(majority_5, 1)
        assert pair is not None
        first, second = pair
        assert len(first & second) < 3

    def test_single_small_quorum_fails_consistency(self):
        system = ExplicitQuorumSystem(range(3), [{0, 1}], name="one-quorum")
        assert check_consistency(system, 1) is not None

    def test_mgrid_consistency_at_its_bound(self, mgrid_7_3):
        assert check_consistency(mgrid_7_3, 3) is None
        assert check_consistency(mgrid_7_3, 4) is not None


class TestResilience:
    def test_blocking_set_found_when_resilience_too_low(self, simple_system):
        # Element 2 hits every quorum, so even b = 1 faults can block access.
        blocking = check_resilience(simple_system, 1)
        assert blocking == frozenset({2})

    def test_blocking_set_padded_to_requested_size(self, simple_system):
        blocking = check_resilience(simple_system, 3)
        assert blocking is not None
        assert len(blocking) == 3
        assert 2 in blocking

    def test_no_blocking_set_below_mt(self, threshold_9_7):
        # MT = 3, so resilience holds for b = 2.
        assert check_resilience(threshold_9_7, 2) is None
        assert check_resilience(threshold_9_7, 3) is not None

    def test_zero_faults_never_block(self, simple_system):
        assert check_resilience(simple_system, 0) is None


class TestReportsAndVerification:
    def test_report_for_masking_system(self, threshold_9_7):
        report = masking_report(threshold_9_7, 2)
        assert report.is_masking
        assert report.consistent and report.resilient
        assert report.violating_pair is None and report.blocking_set is None

    def test_report_for_non_masking_system(self, majority_5):
        report = masking_report(majority_5, 1)
        assert not report.is_masking
        assert not report.consistent

    def test_verify_masking_passes(self, mgrid_7_3):
        verify_masking(mgrid_7_3, 3)

    def test_verify_masking_raises_on_consistency(self, majority_5):
        with pytest.raises(MaskingViolationError, match="intersect"):
            verify_masking(majority_5, 1)

    def test_verify_masking_raises_on_resilience(self):
        # Intersections are large (single fat quorum) but one server blocks all.
        system = ExplicitQuorumSystem(range(6), [{0, 1, 2, 3, 4}], name="fat")
        with pytest.raises(MaskingViolationError, match="hit every quorum"):
            verify_masking(system, 1)

    def test_negative_b_rejected(self, majority_5):
        with pytest.raises(MaskingViolationError):
            masking_report(majority_5, -1)

    def test_agreement_with_corollary_3_7(self, mgrid_7_3, rt_4_3_depth2, fpp_order2):
        # The literal check and the MT/IS shortcut must agree on every b.
        for system in (mgrid_7_3, rt_4_3_depth2, fpp_order2):
            bound = system.masking_bound()
            for b in range(bound + 2):
                assert masking_report(system, b).is_masking == system.is_b_masking(b)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("threshold", {"n": 9, "b": 2}),
            ("threshold", {"n": 13, "b": 3}),
            ("masking-grid", {"side": 5, "b": 1}),
            ("masking-grid", {"side": 7, "b": 2}),
            ("mgrid", {"side": 5, "b": 1}),
            ("mgrid", {"side": 6, "b": 2}),
            ("mpath", {"side": 5, "b": 1}),
            ("mpath", {"side": 7, "b": 3}),
            ("boostfpp", {"q": 2, "b": 1}),
            ("rt", {"k": 4, "l": 3, "depth": 2}),
        ],
    )
    def test_every_masking_construction_makes_one_decision(self, name, params):
        # Constructor acceptance, Corollary 3.7, Lemma 3.6 and (where the
        # quorums can be listed) the literal check all agree.
        system = build(name, **params)
        bound = system.masking_bound()
        b = params.get("b", bound)
        assert bound >= b
        if system.enumerates_all_quorums:
            assert masking_report(system, b).is_masking
        for candidate in range(bound + 3):
            assert system.is_b_masking(candidate) == (candidate <= bound)

    def test_is_b_masking_settles_a_large_b_on_mt_alone(self, monkeypatch):
        def refuse(self):
            raise AssertionError("IS must not be computed when MT already decides")

        system = MaskingGrid(31, 10)
        monkeypatch.setattr(MaskingGrid, "iter_quorum_masks", refuse)
        monkeypatch.setattr(MaskingGrid, "min_intersection_size", refuse)
        assert not system.is_b_masking(11)
