"""Tests for the additional regular systems (tree, wheel) and the construction selector."""

from __future__ import annotations

import json

import pytest

from repro import (
    ConstructionError,
    MaskingGrid,
    analytic_failure_probability,
    TreeQuorumSystem,
    WheelQuorumSystem,
    boost_masking,
    exact_failure_probability,
    exact_load,
)
from repro.analysis import recommend_construction
from repro.analysis.selector import candidate_constructions


class TestTreeQuorumSystem:
    def test_structure(self):
        tree = TreeQuorumSystem(2)
        assert tree.n == 7
        tree.to_explicit().validate()
        assert tree.min_quorum_size() == 3            # a root-to-leaf path
        assert tree.to_explicit().min_quorum_size() == 3

    def test_depth_zero_is_a_singleton(self):
        tree = TreeQuorumSystem(0)
        assert tree.n == 1
        assert set(tree.quorums()) == {frozenset({0})}

    def test_invalid_depths_rejected(self):
        with pytest.raises(ConstructionError):
            TreeQuorumSystem(-1)
        with pytest.raises(ConstructionError):
            TreeQuorumSystem(9)

    def test_it_is_regular_not_masking(self):
        tree = TreeQuorumSystem(2)
        assert tree.min_intersection_size() == 1
        assert tree.masking_bound() == 0

    def test_root_bypass_gives_fault_tolerance(self):
        # Crashing the root still leaves the both-children quorums alive.
        tree = TreeQuorumSystem(2)
        survivors = tree.to_explicit().restricted_to_alive({0})
        assert survivors is not None
        assert tree.to_explicit().min_transversal_size() >= 2

    def test_sampled_quorums_are_quorums(self, rng):
        tree = TreeQuorumSystem(2)
        quorums = set(tree.quorums())
        for _ in range(10):
            assert tree.sample_quorum(rng) in quorums

    def test_boosting_a_tree(self):
        boosted = boost_masking(TreeQuorumSystem(1), 1)
        assert boosted.is_b_masking(1)
        assert boosted.n == 15


class TestWheelQuorumSystem:
    def test_structure(self):
        wheel = WheelQuorumSystem(6)
        assert wheel.num_quorums() == 6
        wheel.to_explicit().validate()
        assert wheel.min_quorum_size() == 2
        assert wheel.min_intersection_size() == 1

    def test_too_small_rejected(self):
        with pytest.raises(ConstructionError):
            WheelQuorumSystem(2)

    def test_transversal_is_hub_plus_rim_server(self):
        wheel = WheelQuorumSystem(7)
        assert wheel.min_transversal_size() == wheel.to_explicit().min_transversal_size() == 2

    def test_load_beats_majority(self):
        # Balancing between the spokes and the rim gives load 8/15, below
        # the 5/9 of a majority over the same nine servers.
        wheel = WheelQuorumSystem(9)
        assert exact_load(wheel).load == pytest.approx(8 / 15, abs=1e-6)

    def test_crash_probability(self):
        wheel = WheelQuorumSystem(5)
        # The system dies iff (hub dead or all rim dead) and some rim server dead.
        value = exact_failure_probability(wheel, 0.2).value
        assert 0.0 < value < 0.5

    def test_sampling(self, rng):
        wheel = WheelQuorumSystem(6)
        quorums = set(wheel.quorums())
        for _ in range(10):
            assert wheel.sample_quorum(rng) in quorums

    def test_boosting_a_wheel(self):
        boosted = boost_masking(WheelQuorumSystem(4), 1)
        assert boosted.is_b_masking(1)


class TestSelector:
    def test_reproduces_the_section8_conclusion(self, rng):
        # With ~1024 servers, p = 1/8, b = 15 required and a load budget of
        # ~1/4, the paper concludes "the RT(4,3) construction is the best".
        recommendation = recommend_construction(
            1024, 0.125, required_b=15, max_load=0.3, rng=rng
        )
        assert recommendation.best is not None
        assert "RT(4,3)" in recommendation.best.name
        rejected_names = {profile.name for profile in recommendation.rejected}
        assert any("Threshold" in name for name in rejected_names)

    def test_high_masking_requirement_forces_threshold(self, rng):
        recommendation = recommend_construction(256, 0.1, required_b=60, rng=rng)
        assert recommendation.best is not None
        assert "Threshold" in recommendation.best.name
        # Nothing grid-shaped can mask 60 failures over 256 servers.
        assert all("Threshold" in profile.name for profile in recommendation.feasible)

    def test_load_budget_filters_threshold(self, rng):
        with_budget = recommend_construction(256, 0.125, required_b=3, max_load=0.5, rng=rng)
        without_budget = recommend_construction(256, 0.125, required_b=3, rng=rng)
        assert len(with_budget.feasible) < len(without_budget.feasible)

    def test_feasible_profiles_sorted_by_availability(self, rng):
        recommendation = recommend_construction(256, 0.125, required_b=3, rng=rng)
        crash_values = [profile.crash_probability for profile in recommendation.feasible]
        assert crash_values == sorted(crash_values)

    def test_ranking_is_deterministic_without_an_rng(self):
        # Regression: the grid candidates' Fp used to be an unseeded sample
        # (labelled "exact"), so the ranking could change between calls.
        first = recommend_construction(64, 0.05, required_b=1)
        second = recommend_construction(64, 0.05, required_b=1)
        assert any(profile.name.startswith("MR98-Grid") for profile in first.feasible)
        assert first == second

    def test_cli_table_prints_identical_bytes(self, capsys):
        from repro.api.cli import main

        argv = ["table", "--n", "64", "--p", "0.05", "--include-baselines", "--seed", "0", "--json"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        grid_row = next(
            row for row in json.loads(outputs[0]) if row["system"].startswith("MR98-Grid")
        )
        assert grid_row["fp_kind"] == "exact"
        assert grid_row["fp"] == analytic_failure_probability(MaskingGrid(8, 0), 0.05).value

    def test_candidate_generation_skips_infeasible_shapes(self):
        candidates = candidate_constructions(64, required_b=10)
        names = [system.name for system in candidates]
        # M-Grid/M-Path over an 8x8 grid cannot mask 10 failures.
        assert not any(name.startswith("M-Grid") for name in names)
        assert not any(name.startswith("M-Path") for name in names)
        assert any("Threshold" in name for name in names)

    def test_invalid_arguments_rejected(self, rng):
        with pytest.raises(ConstructionError):
            recommend_construction(2, 0.1, required_b=1, rng=rng)
        with pytest.raises(ConstructionError):
            recommend_construction(64, 0.1, required_b=-1, rng=rng)
