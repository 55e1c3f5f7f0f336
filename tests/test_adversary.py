"""Adaptive-adversary tests: policies, the round loop, and the paper bounds.

The adversary layer (:mod:`repro.simulation.adversary`) re-chooses the fault
set between workload rounds from observed load; the paper's claims are
worst-case, so the empirical metrics must respect them *even then*:

* the aggregate load stays inside the restricted-strategy envelope and above
  the ``L(Q)`` LP value (Definition 3.8) — the two-sided squeeze of
  :func:`repro.analysis.conformance.load_conformance`;
* within ``b`` Byzantine servers there are zero fabricated and zero stale
  reads (Lemma 3.6), and an *over-budget* adversary demonstrably breaks
  that — the checker has teeth.

Against a skewed (non-optimal) strategy the greedy adversary must also beat
the i.i.d. crash baseline on average: adaptivity has to matter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MGrid, MaskingGrid
from repro.analysis import (
    adversarial_conformance,
    load_conformance,
    masking_conformance,
    restricted_induced_loads,
    worst_case_induced_load,
)
from repro.exceptions import SimulationError
from repro.simulation import (
    AdaptiveScenario,
    AdversarialResult,
    FaultInjector,
    GreedyLoadAdversary,
    StaleReadAdversary,
    WorkloadResult,
    WorkloadScenario,
    resolve_strategy,
    run_workload,
)


@pytest.fixture
def system():
    return MGrid(5, 1)


# ----------------------------------------------------------------------
# Policies.
# ----------------------------------------------------------------------
class TestPolicies:
    def test_hottest_ranks_by_count_then_universe_order(self, system):
        universe = system.universe
        counts = {server: 0 for server in universe}
        hot = universe.elements[7]
        counts[hot] = 10
        policy = GreedyLoadAdversary()
        chosen = policy.hottest(universe, counts, 2)
        assert hot in chosen
        # The tie among the zero-count rest breaks by universe position.
        assert universe.elements[0] in chosen

    def test_cold_start_is_deterministic(self, system):
        universe = system.universe
        policy = GreedyLoadAdversary()
        first = policy.hottest(universe, {}, 3)
        assert first == frozenset(universe.elements[:3])

    def test_budget_defaults_to_b_and_clamps(self, system):
        universe = system.universe
        assert GreedyLoadAdversary().budget(2, universe) == 2
        assert GreedyLoadAdversary(corruptions=5).budget(1, universe) == 5
        assert GreedyLoadAdversary(corruptions=10**6).budget(1, universe) == universe.size
        assert GreedyLoadAdversary(corruptions=-3).budget(1, universe) == 0

    def test_greedy_crashes_and_stale_corrupts(self, system):
        universe = system.universe
        counts = {server: 1 for server in universe}
        crash = GreedyLoadAdversary().choose(universe, 2, counts)
        lie = StaleReadAdversary().choose(universe, 2, counts)
        assert crash.num_crashed == 2 and crash.num_byzantine == 0
        assert lie.num_byzantine == 2 and lie.num_crashed == 0

    def test_adaptive_scenario_validation(self):
        with pytest.raises(SimulationError):
            AdaptiveScenario(name="x", policy=GreedyLoadAdversary(), rounds=0)
        with pytest.raises(SimulationError):
            AdaptiveScenario(
                name="x", policy=GreedyLoadAdversary(), byzantine_model="nope"
            )


# ----------------------------------------------------------------------
# The round loop.
# ----------------------------------------------------------------------
class TestRoundLoop:
    def test_accounting_is_conserved(self, system):
        result = run_workload(
            system,
            b=1,
            scenario=AdaptiveScenario("adaptive", policy=GreedyLoadAdversary(), rounds=8),
            num_operations=200,
            rng=np.random.default_rng(7),
        )
        assert len(result.rounds) == 8
        assert sum(r.result.operations for r in result.rounds) == 200
        succeeded = result.successful_reads + result.successful_writes
        assert succeeded + result.failed_operations == 200
        assert result.empirical_load == pytest.approx(
            max(result.per_server_load.values())
        )

    @pytest.mark.parametrize("policy", [GreedyLoadAdversary(), StaleReadAdversary()])
    def test_aggregate_is_the_fold_of_the_rounds(self, system, policy):
        """Folding the rounds reproduces every aggregate field exactly, and
        the per-server frequencies are integer tallies over the right
        denominator (203 operations over 8 rounds: uneven chunks)."""
        result = run_workload(
            system,
            b=1,
            scenario=AdaptiveScenario("adaptive", policy=policy, rounds=8),
            num_operations=203,
            rng=np.random.default_rng(7),
        )
        parts = [round_.result for round_ in result.rounds]
        assert result == AdversarialResult.fold(
            parts, rounds=result.rounds, strategy=result.strategy
        )
        succeeded = result.successful_reads + result.successful_writes
        for name, denominator in (
            ("per_server_load", succeeded),
            ("per_server_attempted", 203),
            ("per_server_messages", 203),
        ):
            tallies = result.tallies(name)
            for server in system.universe:
                assert isinstance(tallies[server], int)
                assert tallies[server] == sum(part.tallies(name)[server] for part in parts)
                assert getattr(result, name)[server] == tallies[server] / denominator

    def test_one_part_fold_is_the_identity(self, system):
        crashed = FaultInjector(system.universe, np.random.default_rng(2)).exact(0, 3)
        part = run_workload(
            system, b=1, num_operations=49, scenario=crashed,
            rng=np.random.default_rng(5),
        )
        assert part.per_server_attempted != part.per_server_load
        assert WorkloadResult.fold([part]) == part

    def test_fold_weights_by_the_right_denominator(self):
        """Load frequencies weigh by successful operations, attempted and
        message rates by all operations; absent servers count zero."""
        first = WorkloadResult(
            operations=10, successful_reads=2, successful_writes=2,
            failed_operations=6, consistency_violations=1, stale_reads=0,
            empirical_load=1.0,
            per_server_load={"x": 4 / 4},
            per_server_messages={"x": 30 / 10},
            per_server_attempted={"x": 20 / 10},
        )
        second = WorkloadResult(
            operations=30, successful_reads=20, successful_writes=10,
            failed_operations=0, consistency_violations=0, stale_reads=2,
            empirical_load=0.5,
            per_server_load={"x": 15 / 30, "y": 1 / 30},
            per_server_messages={"x": 45 / 30, "y": 3 / 30},
            per_server_attempted={"x": 15 / 30, "y": 1 / 30},
        )
        whole = WorkloadResult.fold([first, second])
        assert (whole.operations, whole.failed_operations) == (40, 6)
        assert (whole.successful_reads, whole.successful_writes) == (22, 12)
        assert (whole.consistency_violations, whole.stale_reads) == (1, 2)
        assert whole.per_server_load == {"x": 19 / 34, "y": 1 / 34}
        assert whole.per_server_attempted == {"x": 35 / 40, "y": 1 / 40}
        assert whole.per_server_messages == {"x": 75 / 40, "y": 3 / 40}
        assert whole.empirical_load == 19 / 34

    def test_trajectory_reacts_to_observed_load(self, system):
        result = run_workload(
            system,
            b=1,
            scenario=AdaptiveScenario("adaptive", policy=GreedyLoadAdversary(), rounds=8),
            num_operations=400,
            rng=np.random.default_rng(3),
        )
        trajectory = result.corruption_trajectory
        # Round 0 is the cold start (universe order); later rounds target a
        # genuinely observed hot server.
        assert trajectory[0] == frozenset(system.universe.elements[:1])
        assert any(choice != trajectory[0] for choice in trajectory[1:])

    def test_run_is_seed_deterministic(self, system):
        runs = [
            run_workload(
                system,
                b=1,
                scenario=AdaptiveScenario("adaptive", policy=GreedyLoadAdversary(), rounds=8),
                num_operations=200,
                rng=np.random.default_rng(11),
            )
            for _ in range(2)
        ]
        assert runs[0].corruption_trajectory == runs[1].corruption_trajectory
        assert runs[0].per_server_load == runs[1].per_server_load
        assert runs[0].empirical_load == runs[1].empirical_load

    def test_rejects_degenerate_round_counts(self, system):
        with pytest.raises(SimulationError):
            run_workload(
                system,
                b=1,
                scenario=AdaptiveScenario("adaptive", policy=GreedyLoadAdversary(), rounds=4),
                num_operations=3,
            )
        with pytest.raises(SimulationError):
            AdaptiveScenario("adaptive", policy=GreedyLoadAdversary(), rounds=0)
        with pytest.raises(SimulationError):
            AdaptiveScenario("adaptive", policy="greedy")  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Conformance with the paper bounds.
# ----------------------------------------------------------------------
class TestPaperBounds:
    @pytest.mark.parametrize("policy", [GreedyLoadAdversary(), StaleReadAdversary()])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_adaptive_runs_stay_inside_every_bound(self, system, policy, seed):
        result, report = adversarial_conformance(
            system,
            b=1,
            scenario=AdaptiveScenario("adaptive", policy=policy, rounds=8),
            num_operations=400,
            seed=seed,
        )
        report.require()  # raises ConformanceError on any violation
        assert report.check("fabricated-reads").observed == 0
        assert report.check("stale-read-rate").observed == 0

    def test_conformance_holds_on_the_masking_grid_too(self):
        system = MaskingGrid(9, 2)
        result, report = adversarial_conformance(
            system,
            b=2,
            scenario=AdaptiveScenario("adaptive", policy=StaleReadAdversary(), rounds=6),
            num_operations=300,
        )
        report.require()

    def test_worst_case_bound_dominates_every_realised_round(self, system):
        result = run_workload(
            system,
            b=1,
            scenario=AdaptiveScenario("adaptive", policy=GreedyLoadAdversary(), rounds=6),
            num_operations=300,
            rng=np.random.default_rng(5),
        )
        report = load_conformance(result, system, b=1)
        envelope = report.check("load-envelope").bound
        worst = report.check("load-worst-case").bound
        assert worst >= envelope
        assert worst == pytest.approx(
            worst_case_induced_load(system, result.strategy, b=1)
        )

    def test_adaptive_beats_the_iid_crash_baseline(self, system):
        """Adaptivity must matter: the greedy adversary spends its whole
        budget on a live target every round, while i.i.d. crashes at the
        matched rate ``p = b/n`` often crash nothing.  Conditioned on staying
        within the masking budget (the regime the paper's guarantees cover),
        the adaptive trajectory induces measurably more load — both in the
        analytic restricted-strategy loads and in the empirical per-round
        measurements."""
        universe = system.universe
        strategy = resolve_strategy(system, None)
        result = run_workload(
            system,
            b=1,
            scenario=AdaptiveScenario("adaptive", policy=GreedyLoadAdversary(), rounds=8),
            num_operations=400,
            strategy=strategy,
            rng=np.random.default_rng(0),
        )
        adaptive_analytic = restricted_induced_loads(
            strategy, universe, [r.fault.crashed for r in result.rounds]
        )
        adaptive_empirical = [r.result.empirical_load for r in result.rounds]

        injector = FaultInjector(universe, np.random.default_rng(42))
        draws = [
            injector.independent_crashes(1 / universe.size) for _ in range(400)
        ]
        within_budget = [draw for draw in draws if draw.num_crashed <= 1]
        assert len(within_budget) > 200  # P(<=1 crash) ~ 0.73 at p = 1/25
        iid_analytic = restricted_induced_loads(
            strategy, universe, [draw.crashed for draw in within_budget]
        )
        iid_empirical = []
        for index, draw in enumerate(within_budget[: len(adaptive_empirical) * 6]):
            scenario = WorkloadScenario.from_fault_scenario(draw, name="iid-baseline")
            iid_empirical.append(
                run_workload(
                    system,
                    b=1,
                    num_operations=50,
                    scenario=scenario,
                    strategy=strategy,
                    rng=np.random.default_rng(1000 + index),
                ).empirical_load
            )
        assert np.nanmean(adaptive_analytic) > np.nanmean(iid_analytic) + 0.02
        assert np.mean(adaptive_empirical) > np.mean(iid_empirical) + 0.02

    def test_overloaded_adversary_breaks_masking(self, system):
        """Beyond the budget (2b+1 liars in the intersections) fabrication
        becomes possible — the negative control showing the checks have teeth."""
        result = run_workload(
            system,
            b=1,
            scenario=AdaptiveScenario(
                "adaptive",
                policy=StaleReadAdversary(corruptions=system.universe.size // 2),
                rounds=6,
            ),
            num_operations=300,
            rng=np.random.default_rng(2),
            allow_overload=True,
        )
        assert result.consistency_violations > 0
        report = masking_conformance(result, b=1)
        assert not report.ok
        assert {check.metric for check in report.failures} >= {"byzantine-budget"}
