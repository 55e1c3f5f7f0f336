"""Tests for the vectorised scenario engine and the workload scenario suite.

Covers the three properties the engine is built around:

* **seeded determinism** — a run is a pure function of the rng state;
* **mode agreement** — the vectorised path and the per-operation sequential
  reference produce bit-for-bit identical :class:`WorkloadResult` objects
  for the same seed, across scenario classes;
* **honest accounting** — the empirical load counts successful operations
  only (the Definition 3.8 fix), with failed probes reported separately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ExplicitQuorumSystem,
    MGrid,
    SimulationError,
    Strategy,
    ThresholdQuorumSystem,
    exact_load,
)
from repro.core import BitsetEngine, Membership, plan_events
from repro.core.strategy import _SAMPLE_CHUNK
from repro.simulation import (
    AdaptiveScenario,
    FaultScenario,
    MembershipTimeline,
    StaleReadAdversary,
    TimingScenario,
    TraceScenario,
    WorkloadScenario,
    byzantine_scenario,
    churn_scenario,
    correlated_failure_scenario,
    crash_scenario,
    fault_free_scenario,
    partition_scenario,
    random_crash_scenario,
    run_event_workload,
    run_workload,
    scenario_suite,
)
from repro.simulation.engine import _build_phase_tables, _sample_schedule, resolve_strategy


@pytest.fixture
def grid_system():
    """A small grid system whose runs are fast but non-trivial (16 servers)."""
    return MGrid(4, 1)


def _grid_scenarios(system, rng):
    """Three-plus scenario classes over the grid universe, for agreement runs."""
    universe = system.universe
    elements = universe.elements
    return [
        fault_free_scenario(),
        crash_scenario(universe, [elements[0], elements[5]]),
        byzantine_scenario(universe, [elements[3]], model="fabricate"),
        churn_scenario(
            universe,
            [elements[:2], elements[2:4], ()],
            name="churn",
        ),
        partition_scenario(universe, elements[: (3 * len(elements)) // 4]),
    ]


class TestSeededDeterminism:
    def test_same_seed_same_result(self, grid_system):
        results = [
            run_workload(
                grid_system,
                b=1,
                num_operations=250,
                rng=np.random.default_rng(99),
            )
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_different_seeds_differ(self, grid_system):
        first = run_workload(
            grid_system, b=1, num_operations=250, rng=np.random.default_rng(1)
        )
        second = run_workload(
            grid_system, b=1, num_operations=250, rng=np.random.default_rng(2)
        )
        assert first != second


class TestEngineLegacyAgreement:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_vectorised_matches_sequential_across_scenarios(self, grid_system, seed):
        """Same rng seed => identical WorkloadResult from both execution paths."""
        scenarios = _grid_scenarios(grid_system, np.random.default_rng(0))
        assert len(scenarios) >= 3
        for scenario in scenarios:
            vectorised = run_workload(
                grid_system,
                b=1,
                num_operations=300,
                scenario=scenario,
                rng=np.random.default_rng(seed),
            )
            sequential = run_workload(
                grid_system,
                b=1,
                num_operations=300,
                scenario=scenario,
                rng=np.random.default_rng(seed),
                mode="sequential",
            )
            assert vectorised == sequential, scenario.name

    def test_agreement_under_optimal_strategy(self, grid_system):
        scenario = crash_scenario(grid_system.universe, [grid_system.universe.elements[0]])
        vectorised = run_workload(
            grid_system,
            b=1,
            num_operations=200,
            scenario=scenario,
            strategy="optimal",
            rng=np.random.default_rng(21),
        )
        sequential = run_workload(
            grid_system,
            b=1,
            num_operations=200,
            scenario=scenario,
            strategy="optimal",
            rng=np.random.default_rng(21),
            mode="sequential",
        )
        assert vectorised == sequential

    def test_agreement_beyond_masking_bound(self, grid_system):
        """Violation counting agrees too (equivocating camps over the bound)."""
        elements = grid_system.universe.elements
        scenario = byzantine_scenario(
            grid_system.universe, elements[:6], model="equivocate"
        )
        kwargs = dict(
            b=1, num_operations=300, scenario=scenario, allow_overload=True
        )
        vectorised = run_workload(
            grid_system, rng=np.random.default_rng(31), **kwargs
        )
        sequential = run_workload(
            grid_system, rng=np.random.default_rng(31), mode="sequential", **kwargs
        )
        assert vectorised == sequential
        assert vectorised.consistency_violations > 0


    @pytest.mark.parametrize("kind", ["adaptive", "membership"])
    def test_rounds_and_epochs_agree_across_modes(self, kind):
        """Adaptive rounds and membership epochs are batches on one rng
        stream, and ``mode`` selects the path of every batch: the two modes
        agree batch for batch."""
        system = MGrid(5, 1)
        if kind == "adaptive":
            scenario = AdaptiveScenario("adaptive", policy=StaleReadAdversary(), rounds=5)
        else:
            events = plan_events(system.universe, [("sever", 9), ("join", 9)])
            scenario = MembershipTimeline(Membership(system.universe, events), policy="resolve")
        vectorised, sequential = (
            run_workload(
                system,
                b=1,
                num_operations=300,
                scenario=scenario,
                rng=np.random.default_rng(13),
                mode=mode,
            )
            for mode in ("vectorised", "sequential")
        )
        if kind == "adaptive":
            assert vectorised.rounds == sequential.rounds
            assert vectorised.tallies() == sequential.tallies()
        else:
            parts = [[o.result for o in run.outcomes] for run in (vectorised, sequential)]
            assert parts[0] == parts[1]
            assert vectorised.whole == sequential.whole


class TestEmpiricalLoadAccounting:
    def test_crash_heavy_scenario_keeps_load_a_frequency(self):
        """Regression: failed probes must not inflate the empirical load.

        Phase 1 is fault-free, phase 2 kills a transversal, so half the
        operations fail after a full probe budget.  The pre-fix accounting
        tallied those probes but normalised by successful operations only,
        pushing ``empirical_load`` above the true access frequency (and
        potentially above 1); the fixed accounting keeps it a frequency.
        """
        system = ThresholdQuorumSystem(5, 4)
        scenario = churn_scenario(
            system.universe, [(), (0, 1)], name="half-dead"
        )
        result = run_workload(
            system,
            b=0,
            num_operations=400,
            scenario=scenario,
            rng=np.random.default_rng(5),
        )
        assert result.failed_operations > 100
        assert 0.0 < result.empirical_load <= 1.0
        assert all(0.0 <= value <= 1.0 for value in result.per_server_load.values())
        # The diagnostic tally still sees the failed probes.
        assert max(result.per_server_attempted.values()) > result.empirical_load

    def test_total_outage_reports_zero_load_and_nonzero_attempts(self):
        system = ThresholdQuorumSystem(5, 4)
        scenario = crash_scenario(system.universe, [0, 1])
        result = run_workload(
            system,
            b=0,
            num_operations=50,
            scenario=scenario,
            rng=np.random.default_rng(6),
        )
        assert result.availability == 0.0
        assert result.empirical_load == 0.0
        assert max(result.per_server_attempted.values()) > 0.0
        assert max(result.per_server_messages.values()) > 0.0

    def test_fault_free_per_server_load_sums_to_quorum_size(self, grid_system):
        result = run_workload(
            grid_system, b=1, num_operations=300, rng=np.random.default_rng(11)
        )
        total = sum(result.per_server_load.values())
        assert total == pytest.approx(grid_system.min_quorum_size())

    def test_messages_exceed_quorum_accesses(self, grid_system):
        """Writes broadcast twice, so message frequency dominates access frequency."""
        result = run_workload(
            grid_system, b=1, num_operations=300, rng=np.random.default_rng(12)
        )
        assert max(result.per_server_messages.values()) > result.empirical_load


class TestResilienceSemantics:
    def test_crashes_below_resilience_cost_no_availability(self, grid_system):
        f = grid_system.resilience()
        assert f >= 1
        crashed = grid_system.universe.elements[:f]
        result = run_workload(
            grid_system,
            b=1,
            num_operations=150,
            scenario=crash_scenario(grid_system.universe, crashed),
            rng=np.random.default_rng(13),
        )
        assert result.availability == pytest.approx(1.0)

    def test_violations_zero_within_masking_bound(self, grid_system):
        elements = grid_system.universe.elements
        for model in ("fabricate", "equivocate"):
            scenario = byzantine_scenario(
                grid_system.universe, [elements[7]], model=model
            )
            result = run_workload(
                grid_system,
                b=1,
                num_operations=250,
                scenario=scenario,
                rng=np.random.default_rng(14),
            )
            assert result.consistency_violations == 0
            assert result.stale_reads == 0


class TestStrategyWiring:
    def test_optimal_strategy_reaches_the_lp_load(self):
        """Wiring exact_load's strategy into the clients realises L(Q)."""
        system = ExplicitQuorumSystem(
            range(3),
            [{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}],
            name="triangle",
        )
        analytic = exact_load(system).load
        assert analytic == pytest.approx(2 / 3)
        optimal = run_workload(
            system,
            b=0,
            num_operations=3000,
            strategy="optimal",
            rng=np.random.default_rng(15),
        )
        uniform = run_workload(
            system,
            b=0,
            num_operations=3000,
            strategy="uniform",
            rng=np.random.default_rng(15),
        )
        assert optimal.empirical_load == pytest.approx(analytic, abs=0.04)
        assert uniform.empirical_load == pytest.approx(0.75, abs=0.04)
        assert optimal.empirical_load < uniform.empirical_load

    def test_explicit_strategy_instance_is_used(self, grid_system):
        quorum = grid_system.quorums()[0]
        strategy = Strategy({quorum: 1.0})
        result = run_workload(
            grid_system,
            b=1,
            num_operations=100,
            strategy=strategy,
            rng=np.random.default_rng(16),
        )
        expected = {
            server: (1.0 if server in quorum else 0.0)
            for server in grid_system.universe
        }
        assert result.per_server_load == expected

    def test_unknown_strategy_specification_rejected(self, grid_system):
        with pytest.raises(SimulationError):
            run_workload(grid_system, b=1, num_operations=10, strategy="fastest")


class TestScenarioSuite:
    def test_factories_validate_inputs(self, grid_system):
        universe = grid_system.universe
        with pytest.raises(SimulationError):
            partition_scenario(universe, [])
        with pytest.raises(SimulationError):
            correlated_failure_scenario(universe, [universe.elements[:4]], [3])
        with pytest.raises(SimulationError):
            churn_scenario(universe, [])
        with pytest.raises(SimulationError):
            WorkloadScenario(
                name="bad",
                phases=(FaultScenario.fault_free(),),
                phase_fractions=(0.5,),
            )
        with pytest.raises(SimulationError):
            WorkloadScenario(
                name="bad-model",
                phases=(FaultScenario.fault_free(),),
                byzantine_model="gossip",
            )

    def test_phase_mapping_covers_all_operations(self):
        scenario = WorkloadScenario(
            name="three",
            phases=(
                FaultScenario.fault_free(),
                FaultScenario(crashed=frozenset({0})),
                FaultScenario.fault_free(),
            ),
            phase_fractions=(0.5, 0.25, 0.25),
        )
        phases = scenario.phase_of_operations(100)
        assert len(phases) == 100
        assert list(np.bincount(phases)) == [50, 25, 25]

    def test_suite_runs_under_both_strategies(self, grid_system, rng):
        suite = scenario_suite(grid_system.universe, b=1, rng=rng)
        names = {scenario.name for scenario in suite}
        assert {
            "fault-free",
            "iid-crash",
            "byzantine-fabricate",
            "byzantine-equivocate",
            "rack-failure",
            "partition",
            "churn",
        } <= names
        for scenario in suite:
            for strategy in ("uniform", "optimal"):
                result = run_workload(
                    grid_system,
                    b=1,
                    num_operations=60,
                    scenario=scenario,
                    strategy=strategy,
                    rng=np.random.default_rng(17),
                )
                assert result.operations == 60
                assert result.empirical_load <= 1.0

    def test_random_crash_scenario_draws_from_the_model(self, grid_system, rng):
        scenario = random_crash_scenario(grid_system.universe, 0.5, rng)
        assert scenario.num_phases == 1

    def test_scenario_mentioning_unknown_servers_rejected(self, grid_system):
        scenario = WorkloadScenario.from_fault_scenario(
            FaultScenario(crashed=frozenset({"nonexistent"}))
        )
        with pytest.raises(SimulationError):
            run_workload(grid_system, b=1, num_operations=10, scenario=scenario)

    def test_overload_requires_flag(self, grid_system):
        elements = grid_system.universe.elements
        scenario = byzantine_scenario(grid_system.universe, elements[:5])
        with pytest.raises(SimulationError):
            run_workload(grid_system, b=1, num_operations=10, scenario=scenario)


class TestFigure1Workloads:
    """The engine on the Figure 1 system, M-Grid over a 7x7 grid masking b = 3."""

    def test_100k_operations_match_the_sequential_reference(self, python_calls):
        """Bit-for-bit mode agreement at 10^5 operations, with no per-op Python work.

        The vectorised engine's Python calls do not grow with the batch
        (132 at 20 000, 100 000 and 1 000 000 operations on CPython 3.11,
        numpy 2.4), where the sequential reference pays per operation; the
        schedule's chunk loop, which runs about 40 times at 10^6
        operations, and the survival check's member-row loop call only
        ndarray methods and ufuncs.  The uniform strategy, its sampling
        arrays and its support engine are cached on the system, so a run
        on a warm system builds none of them.  The ceiling is 154, the
        count before the bit-sliced survival check, plus the 64 calls of
        slack the size check allows, for drift across CPython and numpy
        versions.
        """
        system = MGrid(7, 3)
        # Warm the per-system caches (quorum list, incidence, strategy arrays).
        run_workload(system, b=3, num_operations=100, rng=np.random.default_rng(0))

        def vectorised(operations):
            return run_workload(
                system, b=3, num_operations=operations, rng=np.random.default_rng(20240614)
            )

        calls_20k, _ = python_calls(lambda: vectorised(20_000))
        calls_100k, result = python_calls(lambda: vectorised(100_000))
        calls_1m, _ = python_calls(lambda: vectorised(1_000_000))
        for calls in (calls_100k, calls_1m):
            assert abs(calls - calls_20k) <= 64, (calls_20k, calls_100k, calls_1m)
            assert calls <= 154 + 64, calls
        assert result.operations == 100_000
        assert result.availability == 1.0
        assert result.consistency_violations == 0

        sequential = run_workload(
            system,
            b=3,
            num_operations=100_000,
            rng=np.random.default_rng(20240614),
            mode="sequential",
        )
        assert sequential == result

    def test_the_uniform_strategy_is_built_once_per_system(self, monkeypatch):
        """Runs on one system share its uniform strategy and support engine."""
        builds = []
        build = BitsetEngine.__init__

        def counting(engine, *args, **kwargs):
            builds.append(engine)
            build(engine, *args, **kwargs)

        monkeypatch.setattr(BitsetEngine, "__init__", counting)
        system = MGrid(7, 3)
        strategies = set()
        for seed in range(5):
            run_workload(system, b=3, num_operations=1_000, rng=np.random.default_rng(seed))
            strategies.add(id(resolve_strategy(system, None)))
        assert len(builds) == 1
        assert len(strategies) == 1

    def test_scenario_suite_stays_within_the_bound(self):
        system = MGrid(7, 3)
        suite = scenario_suite(system.universe, b=3, rng=np.random.default_rng(20240614))
        for scenario in suite:
            for strategy in ("uniform", "optimal"):
                result = run_workload(
                    system,
                    b=3,
                    num_operations=20_000,
                    scenario=scenario,
                    strategy=strategy,
                    rng=np.random.default_rng(7),
                )
                assert result.empirical_load <= 1.0
                assert result.consistency_violations == 0, (scenario.name, strategy)


class TestLazySchedule:
    """The schedule inverts only the attempts the engine reads, and exactly.

    The middle phase crashes a column of ``mgrid(7, 3)``, a transversal, so
    its operations are the retry rows whose every attempt is read.  Sizes
    span more than three chunks of the inversion, with chunk edges inside
    the run of retry rows.
    """

    SEED = 20240614

    @staticmethod
    def dead_middle(max_attempts):
        system = MGrid(7, 3)
        column = [element for element in system.universe if element[1] == 0]
        scenario = churn_scenario(
            system.universe,
            [(), column, ()],
            phase_fractions=(0.2, 0.6, 0.2),
            name="dead-middle",
        )
        span = _SAMPLE_CHUNK // max_attempts  # rows per chunk of the inversion
        return system, scenario, 3 * span + span // 2 + 7, span

    @pytest.mark.parametrize("max_attempts", [1, 3, 10])
    def test_schedule_equals_the_full_inversion_of_the_same_draws(self, max_attempts):
        system, scenario, num_operations, span = self.dead_middle(max_attempts)
        strategy = resolve_strategy(system, None)
        tables = _build_phase_tables(system, strategy, scenario)
        phase_of_op = scenario.phase_of_operations(num_operations)
        retry_rows = np.flatnonzero(~tables.any_alive[phase_of_op])
        assert tables.any_alive.tolist() == [True, False, True]
        edges = np.arange(span, num_operations, span)
        assert np.isin(edges - 1, retry_rows).sum() >= 2
        assert np.isin(edges, retry_rows).sum() >= 2

        rng = np.random.default_rng(self.SEED)
        schedule = _sample_schedule(strategy, rng, max_attempts, tables, phase_of_op)

        # Every attempt drawn in row-major order and inverted by binary search.
        reference = np.random.default_rng(self.SEED)
        op_draws = reference.random(num_operations)
        cumulative = np.cumsum(strategy.probabilities)
        draws = reference.random((num_operations, max_attempts))
        attempts = np.minimum(
            np.searchsorted(cumulative, draws * cumulative[-1], "right"), len(cumulative) - 1
        )
        assert np.array_equal(schedule.op_draws, op_draws)
        assert np.array_equal(schedule.first_attempt, attempts[:, 0])
        assert schedule.retry_attempts.shape == (len(retry_rows), max_attempts - 1)
        assert np.array_equal(schedule.retry_attempts, attempts[retry_rows, 1:])
        assert np.array_equal(schedule.steer_draws, reference.random(num_operations))
        assert rng.random() == reference.random()

    def test_modes_agree_across_the_dead_phase(self):
        system, scenario, num_operations, _ = self.dead_middle(10)
        vectorised, sequential = (
            run_workload(
                system,
                b=3,
                num_operations=num_operations,
                scenario=scenario,
                max_attempts=10,
                rng=np.random.default_rng(self.SEED),
                mode=mode,
            )
            for mode in ("vectorised", "sequential")
        )
        assert vectorised.failed_operations > num_operations // 2
        assert vectorised == sequential


class TestRunnerCompatibility:
    def test_negative_b_gives_the_same_error_on_both_engines(self, grid_system):
        messages = []
        for run in (run_workload, run_event_workload):
            with pytest.raises(SimulationError) as error:
                run(grid_system, b=-1)
            messages.append(str(error.value))
        assert messages == ["masking parameter must be >= 0, got -1"] * 2

    @pytest.mark.parametrize(
        ("run", "scenario"),
        [
            (run_workload, TraceScenario(name="diurnal")),
            (run_workload, TimingScenario.static(FaultScenario.fault_free())),
            (run_event_workload, AdaptiveScenario("adaptive", policy=StaleReadAdversary())),
            (run_event_workload, fault_free_scenario()),
        ],
        ids=["trace-vectorised", "timing-vectorised", "adaptive-event", "phased-event"],
    )
    def test_each_engine_refuses_the_other_engines_scenarios(self, grid_system, run, scenario):
        """Refused before the run draws anything from its generator."""
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(SimulationError, match="runs on the other engine"):
            run(grid_system, b=1, scenario=scenario, rng=rng)
        assert rng.bit_generator.state == state

    def test_invalid_arguments_rejected(self, grid_system):
        with pytest.raises(SimulationError):
            run_workload(grid_system, b=1, num_operations=0)
        with pytest.raises(SimulationError):
            run_workload(grid_system, b=1, num_operations=10, write_fraction=1.5)
        with pytest.raises(SimulationError):
            run_workload(grid_system, b=1, num_operations=10, mode="telepathic")
