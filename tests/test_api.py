"""Tests for the facade (`repro.api`): registry, measures, workloads, CLI.

The acceptance gates of the facade PR:

* registry round-trip — ``SystemSpec -> build -> spec_of`` is the identity
  on canonical specs, and specs survive a JSON round-trip;
* dispatch agreement — ``measure(..., method="auto")`` agrees with the
  forced ``exact`` and ``analytic`` paths to 1e-9 across the small-n
  matrix (the same guarantee the PR-4 cross-validation established for
  the paths themselves);
* engine agreement — one ``WorkloadSpec`` run on both engines yields
  ``WorkloadReport`` objects with identical schema and coordinates, and
  statistically consistent measurements;
* CLI smoke — ``python -m repro measure grid --n 25 --json`` and friends
  work end to end as subprocesses;
* the ``InvalidParameterError`` contract — one exception type for bad
  user arguments, registry-wide, catchable as both ``ComputationError``
  and ``ValueError``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro import analytic_load, compose, exact_failure_probability, exact_load, majority
from repro.api import (
    Budget,
    SystemSpec,
    WorkloadReport,
    WorkloadSpec,
    available_constructions,
    available_measures,
    available_scenarios,
    build,
    measure,
    run,
    spec_of,
)
from repro.api.workloads import assemble_report
from repro.core import ReboundQuorumSystem, Universe
from repro.core.analytic import analytic_failure_probability
from repro.core.quorum_system import ExplicitQuorumSystem, ImplicitQuorumSystem
from repro.exceptions import (
    ComputationError,
    ConstructionError,
    InvalidParameterError,
    SimulationError,
)
from repro.simulation import (
    FaultScenario,
    TimingScenario,
    WorkloadScenario,
    run_event_workload,
)

#: One canonical small instance per registered construction.
SMALL_INSTANCES = {
    "threshold": {"n": 16, "b": 3},
    "majority": {"n": 9},
    "grid": {"side": 4},
    "masking-grid": {"side": 4, "b": 1},
    "mgrid": {"side": 4, "b": 1},
    "mpath": {"side": 4, "b": 1},
    "rt": {"depth": 2},
    "boostfpp": {"q": 2, "b": 1},
    "fpp": {"q": 3},
    "crumbling-wall": {"rows": [3, 4, 5]},
    "tree": {"depth": 2},
    "wheel": {"n": 8},
}


class TestRegistry:
    def test_catalogue_is_complete(self):
        # Every construction module is reachable by name — including tree
        # and wheel, which used to need a direct import.
        assert set(SMALL_INSTANCES) == set(available_constructions())

    @pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
    def test_spec_round_trip(self, name):
        system = build(name, **SMALL_INSTANCES[name])
        spec = spec_of(system)
        rebuilt = build(spec)
        assert spec_of(rebuilt) == spec
        assert rebuilt.n == system.n
        if system.enumerates_all_quorums:  # M-Path only enumerates a sub-family
            assert set(rebuilt.quorums()) == set(system.quorums())

    @pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
    def test_spec_json_round_trip(self, name):
        spec = spec_of(build(name, **SMALL_INSTANCES[name]))
        payload = json.loads(json.dumps(spec.to_dict()))
        assert SystemSpec.from_dict(payload) == spec
        assert spec_of(SystemSpec.from_dict(payload).build()) == spec

    def test_raw_threshold_specs_round_trip(self):
        # A raw high threshold has no masking form (4b < n fails); spec_of
        # must fall back to "k" so the spec stays buildable.
        raw = build("threshold", n=9, k=8)
        spec = spec_of(raw)
        assert spec.params == {"n": 9, "k": 8}
        assert build(spec).k == 8

    def test_specs_are_hashable(self):
        specs = {
            spec_of(build(name, **SMALL_INSTANCES[name]))
            for name in SMALL_INSTANCES
        }
        assert spec_of(build("crumbling-wall", rows=[3, 4, 5])) in specs
        # list vs tuple params hash and compare identically
        assert hash(SystemSpec("crumbling-wall", {"rows": [3, 4, 5]})) == hash(
            SystemSpec("crumbling-wall", {"rows": (3, 4, 5)})
        )

    def test_n_alias_for_grid_shapes(self):
        assert build("grid", n=25).side == 5
        assert build("mgrid", n=49, b=3).side == 7
        with pytest.raises(InvalidParameterError):
            build("grid", n=24)
        with pytest.raises(InvalidParameterError):
            build("grid", n=25, side=5)

    def test_implicit_systems_resolve_to_base_spec(self):
        implicit = ImplicitQuorumSystem(build("mgrid", side=5, b=1), num_samples=16)
        assert spec_of(implicit) == spec_of(build("mgrid", side=5, b=1))

    def test_unknown_names_and_params_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown construction"):
            build("paxos", n=5)
        with pytest.raises(InvalidParameterError, match="does not take"):
            build("wheel", n=5, side=3)
        with pytest.raises(InvalidParameterError, match="requires parameter"):
            build("fpp")
        with pytest.raises(InvalidParameterError):
            build("mgrid", side=4.5, b=1)

    def test_infeasible_shapes_keep_construction_error(self):
        # Shape infeasibility is the construction's own domain, not an
        # argument-validation problem.
        with pytest.raises(ConstructionError):
            build("mgrid", side=4, b=10)

    def test_explicit_systems_have_no_spec(self):
        explicit = ExplicitQuorumSystem([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
        with pytest.raises(InvalidParameterError):
            spec_of(explicit)


class TestInvalidParameterContract:
    """Satellite: one exception type for the same user error, registry-wide."""

    @pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
    def test_bad_crash_probability_is_invalid_parameter(self, name):
        system = build(name, **SMALL_INSTANCES[name])
        estimator = getattr(system, "crash_probability", None)
        if estimator is None:
            pytest.skip(f"{name} has no crash_probability method")
        with pytest.raises(InvalidParameterError) as excinfo:
            estimator(1.5)
        # The unified type is catchable under both historic conventions.
        assert isinstance(excinfo.value, ComputationError)
        assert isinstance(excinfo.value, ValueError)

    def test_facade_validation_uses_the_same_type(self):
        for trigger in (
            lambda: measure("mgrid", "fp", side=4, b=1, p=1.5),
            lambda: measure("mgrid", "fp", side=4, b=1),  # missing p
            lambda: measure("mgrid", "nonsense", side=4, b=1),
            lambda: measure("mgrid", "load", side=4, b=1, method="psychic"),
            lambda: Budget(trials=0),
            lambda: WorkloadSpec(system="grid", params={"side": 4}, operations=0),
            lambda: run(
                WorkloadSpec(system="grid", params={"side": 4}, scenario="nope")
            ),
        ):
            with pytest.raises(InvalidParameterError):
                trigger()


class TestMeasureDispatch:
    # Constructions where all three of {auto, exact, analytic} apply at
    # small n (the PR-4 cross-validation matrix shapes).
    AGREEMENT_MATRIX = [
        ("threshold", {"n": 16, "b": 3}),
        ("grid", {"side": 4}),
        ("masking-grid", {"side": 4, "b": 1}),
        ("mgrid", {"side": 4, "b": 1}),
        ("rt", {"depth": 2}),
        ("crumbling-wall", {"rows": [3, 4, 5]}),
        ("fpp", {"q": 3}),
    ]

    @pytest.mark.parametrize("name,params", AGREEMENT_MATRIX)
    def test_auto_load_agrees_with_forced_paths(self, name, params):
        auto = measure(name, "load", **params)
        exact = measure(name, "load", method="exact", **params)
        assert auto.value == pytest.approx(exact.value, abs=1e-9)
        assert auto.method_requested == "auto"
        assert exact.method_used == "lp"
        try:
            analytic = measure(name, "load", method="analytic", **params)
        except ComputationError:
            return  # no closed form: auto resolved to the LP, already checked
        assert auto.value == pytest.approx(analytic.value, abs=1e-9)
        assert auto.method_used == analytic.method_used

    @pytest.mark.parametrize("name,params", AGREEMENT_MATRIX)
    @pytest.mark.parametrize("p", [0.05, 0.2])
    def test_auto_fp_agrees_with_forced_paths(self, name, params, p):
        auto = measure(name, "fp", p=p, **params)
        exact = measure(name, "fp", method="exact", p=p, **params)
        analytic = measure(name, "fp", method="analytic", p=p, **params)
        assert auto.value == pytest.approx(exact.value, abs=1e-9)
        assert auto.value == pytest.approx(analytic.value, abs=1e-9)
        assert auto.error_bound == 0.0

    def test_auto_matches_legacy_entry_points_bitwise(self):
        # The facade is a router, not a recomputation: identical floats.
        system = build("mgrid", side=4, b=1)
        assert measure(system, "load").value == analytic_load(system).load
        assert (
            measure(system, "load", method="exact").value
            == exact_load(system).load
        )
        assert (
            measure(system, "fp", method="exact", p=0.1).value
            == exact_failure_probability(system, 0.1).value
        )

    #: Every registered masking construction at a size where the closed
    #: form, the LP and (within its 2^n budget) enumeration all run.
    LEGACY_MATRIX = [
        ("threshold", {"n": 16, "b": 3}),
        ("masking-grid", {"side": 4, "b": 1}),
        ("mgrid", {"side": 4, "b": 1}),
        ("rt", {"depth": 2}),
        ("boostfpp", {"q": 2, "b": 1}),
        ("grid", {"side": 4}),
        ("fpp", {"q": 3}),
        ("crumbling-wall", {"rows": [3, 4, 5]}),
    ]

    def test_auto_matches_legacy_paths_across_the_matrix(self):
        """measure(..., "auto") equals the pre-facade entry points to 1e-9."""
        for name, params in self.LEGACY_MATRIX:
            system = build(name, **params)
            auto_load = measure(system, "load").value
            try:
                assert auto_load == pytest.approx(analytic_load(system).load, abs=1e-12), name
            except ComputationError:
                pass  # no closed form: auto resolves to the LP
            assert auto_load == pytest.approx(exact_load(system).load, abs=1e-9), name
            auto_fp = measure(system, "fp", p=0.1).value
            legacy_fp = analytic_failure_probability(system, 0.1).value
            assert auto_fp == pytest.approx(legacy_fp, abs=1e-12), name
            # The 2^n enumeration reference only exists within its budget
            # (boostfpp sits at n=35); the analytic value is itself
            # 1e-9-validated against it in tests/test_analytic.py.
            if system.n <= 22:
                exact_fp = exact_failure_probability(system, 0.1).value
                assert auto_fp == pytest.approx(exact_fp, abs=1e-9), name

    def test_availability_is_complement_of_fp(self):
        fp = measure("rt", "fp", depth=2, p=0.15)
        availability = measure("rt", "availability", depth=2, p=0.15)
        assert availability.value == pytest.approx(1.0 - fp.value, abs=1e-12)

    def test_sampled_fp_reports_uncertainty(self):
        result = measure(
            "wheel", "fp", n=8, p=0.2, method="sampled", budget=Budget(trials=5000)
        )
        assert result.method_used == "monte-carlo"
        assert result.error_bound > 0.0
        exact = measure("wheel", "fp", n=8, p=0.2, method="exact")
        assert abs(result.value - exact.value) <= 5 * result.error_bound

    def test_construction_sampler_fp_has_finite_error_bound(self):
        # Constructions with their own crash-pattern sampler (grid family)
        # are unbiased MC estimates, not bounds: finite half-width.
        result = measure(
            "grid", "fp", n=25, p=0.1, method="sampled", budget=Budget(trials=5000)
        )
        assert result.method_used == "monte-carlo"
        assert np.isfinite(result.error_bound) and result.error_bound > 0.0
        exact = measure("grid", "fp", n=25, p=0.1, method="analytic")
        assert abs(result.value - exact.value) <= 6 * result.error_bound

    def test_to_dict_is_strict_json(self):
        # Infinite error bounds (bound-only results) must serialise as null,
        # not Python's non-RFC "Infinity" token.
        bound_only = measure(
            "mgrid", "load", side=5, b=1, method="sampled",
            budget=Budget(num_samples=64),
        )
        assert bound_only.error_bound == float("inf")
        payload = json.dumps(bound_only.to_dict())
        assert "Infinity" not in payload
        assert json.loads(payload)["error_bound"] is None

    def test_sampled_load_is_an_upper_bound(self):
        exact = measure("mgrid", "load", side=5, b=1, method="exact")
        sampled = measure(
            "mgrid", "load", side=5, b=1, method="sampled",
            budget=Budget(num_samples=128, seed=3),
        )
        assert sampled.method_used == "sampled-lp"
        assert sampled.value >= exact.value - 1e-9

    def test_budget_steers_auto_to_sampled(self):
        # Tree(depth=2) has 15 quorums and no closed form; a 5-quorum budget
        # pushes auto past analytic and exact onto the sampled fallback.
        result = measure("tree", "load", depth=2, budget=Budget(max_quorums=5))
        assert result.method_used == "sampled-lp"
        assert result.method_requested == "auto"

    def test_large_n_resolves_analytically(self):
        result = measure("mgrid", "fp", side=100, b=3, p=0.01)
        assert result.n == 10_000
        assert result.method_used == "analytic"
        assert result.error_bound == 0.0

    def test_budget_moves_auto_between_lp_and_sampled(self):
        # Tree has no closed form: a generous budget runs the LP, a tiny
        # quorum budget forces the sampled fallback.
        lp = measure("tree", "load", depth=2, budget=Budget(max_quorums=50))
        sampled = measure(
            "tree", "load", depth=2, budget=Budget(max_quorums=5, num_samples=64)
        )
        assert lp.method_used == "lp"
        assert lp.error_bound == 0.0
        assert sampled.method_used == "sampled-lp"
        assert sampled.error_bound == float("inf")
        # The sampled value is an upper bound on L(Q) over a sub-family.
        assert sampled.value >= lp.value - 1e-9

    def test_combinatorial_measures(self):
        system = build("masking-grid", side=4, b=1)
        for name, reference in [
            ("masking", system.masking_bound()),
            ("resilience", system.resilience()),
            ("min-quorum", system.min_quorum_size()),
            ("intersection", system.min_intersection_size()),
            ("transversal", system.min_transversal_size()),
        ]:
            result = measure("masking-grid", name, side=4, b=1)
            assert result.value == reference, name
            assert result.method_used == "combinatorial"
        assert measure("masking-grid", "masking", side=4, b=1).value >= 1

    def test_measures_catalogue(self):
        assert set(available_measures()) >= {
            "load", "fp", "availability", "masking", "resilience",
        }


def _ladder_systems():
    for name, params in sorted(SMALL_INSTANCES.items()):
        yield pytest.param(lambda name=name, params=params: build(name, **params), id=name)
    yield pytest.param(lambda: compose(majority(3), build("grid", side=3)), id="composed")
    yield pytest.param(
        lambda: ImplicitQuorumSystem(build("mgrid", side=64, b=1), num_samples=32, seed=1),
        id="implicit-mgrid-4096",
    )
    yield pytest.param(
        lambda: ReboundQuorumSystem(
            build("masking-grid", side=4, b=1),
            Universe(f"s{i}" for i in range(16)),
            epoch_index=1,
        ),
        id="rebound",
    )


class TestSingleLadder:
    """``measure`` is the only auto-policy: analytic -> exact -> sampled, one
    vocabulary for what the value is."""

    BUDGET = Budget(trials=300, num_samples=32, seed=5)
    ORDER = ("analytic", "exact", "sampled")

    def _forced(self, system, name, p):
        results = {}
        for method in self.ORDER:
            try:
                results[method] = measure(system, name, method=method, p=p, budget=self.BUDGET)
            except ComputationError:
                pass
        return results

    @pytest.mark.parametrize("name,p", [("load", None), ("fp", 0.2), ("masking", None)])
    @pytest.mark.parametrize("make", _ladder_systems())
    def test_auto_is_the_first_path_that_runs(self, make, name, p):
        system = make()
        forced = self._forced(system, name, p)
        if not forced:
            with pytest.raises(ComputationError):
                measure(system, name, p=p, budget=self.BUDGET)
            return
        first = forced[next(method for method in self.ORDER if method in forced)]
        auto = measure(system, name, p=p, budget=self.BUDGET)
        assert (auto.value, auto.method_used, auto.error_bound, auto.details) == (
            first.value, first.method_used, first.error_bound, first.details
        )

        # Forced exact and closed form agree wherever both run; a closed
        # form that is only a bound says which side it is on.
        if "exact" in forced and "analytic" in forced:
            exact, analytic = forced["exact"], forced["analytic"]
            if analytic.error_bound == 0.0:
                assert analytic.value == pytest.approx(exact.value, abs=1e-9)
            else:
                assert analytic.value >= exact.value - 1e-9

        for result in forced.values():
            kind = result.details.get("kind")
            if result.error_bound == 0.0 and result.method_used != "monte-carlo":
                assert kind is None  # exact
            elif math.isinf(result.error_bound):
                assert kind.startswith(("upper-bound", "lower-bound"))
            else:  # estimate: a finite half-width, zero only at a degenerate 0/1
                assert result.method_used == "monte-carlo" and kind is None
                assert result.error_bound > 0.0 or result.value in (0.0, 1.0)


class TestUnifiedWorkloads:
    def test_engine_auto_picks_vectorized_for_untimed(self):
        report = run(
            WorkloadSpec(
                system="mgrid", params={"side": 4, "b": 1},
                scenario="iid-crash", operations=100, seed=5,
            )
        )
        assert report.engine == "vectorized"
        assert report.latency_p50 is None
        assert report.consistent

    def test_engine_auto_picks_event_for_timed(self):
        report = run(
            WorkloadSpec(
                system="threshold", params={"n": 10, "b": 1},
                scenario="slow-servers", operations=40, seed=5,
            )
        )
        assert report.engine == "event"
        assert report.latency_p50 is not None and report.latency_p50 > 0.0
        assert report.duration is not None and report.duration > 0.0

    def test_forcing_vectorized_on_timed_scenario_fails(self):
        spec = WorkloadSpec(
            system="threshold", params={"n": 10, "b": 1},
            scenario="flaky-links", operations=40,
        )
        with pytest.raises(InvalidParameterError, match="event"):
            run(spec, engine="vectorized")

    def test_forcing_event_on_adaptive_scenario_fails(self):
        spec = WorkloadSpec(
            system="threshold", params={"n": 10, "b": 1},
            scenario="adaptive-load", operations=40,
        )
        with pytest.raises(InvalidParameterError, match="vectorized"):
            run(spec, engine="event")

    def test_reports_share_one_schema(self):
        spec = WorkloadSpec(
            system="mgrid", params={"side": 4, "b": 1}, operations=120,
            clients=4, seed=9,
        )
        vectorized = run(spec, engine="vectorized")
        event = run(spec, engine="event")
        assert tuple(vectorized.to_dict()) == WorkloadReport.SCHEMA
        assert tuple(event.to_dict()) == WorkloadReport.SCHEMA
        json.dumps(vectorized.to_dict())
        json.dumps(event.to_dict())

    def test_engines_agree_on_shared_seed(self):
        # The satellite's field-agreement gate, via the facade-level
        # cross-check in analysis/empirical.
        from repro.analysis.empirical import engine_agreement

        agreement = engine_agreement(
            WorkloadSpec(
                system="mgrid", params={"side": 4, "b": 1},
                operations=400, clients=4, seed=11,
            )
        )
        assert agreement.mismatched_fields == ()
        assert agreement.vectorized.availability == agreement.event.availability == 1.0
        assert agreement.ok(availability_tol=0.0, load_tol=0.05)

    def test_engines_agree_under_byzantine_faults(self):
        from repro.analysis.empirical import engine_agreement

        agreement = engine_agreement(
            WorkloadSpec(
                system="threshold", params={"n": 12, "b": 2},
                scenario="byzantine", operations=300, seed=4,
            )
        )
        assert agreement.mismatched_fields == ()
        assert agreement.vectorized.consistency_violations == 0
        assert agreement.event.consistency_violations == 0

    def test_large_universe_switches_to_sampled_mode(self):
        report = run(
            WorkloadSpec(
                system="mgrid", params={"n": 4096}, operations=400, seed=1,
            )
        )
        assert report.sampled
        assert report.n == 4096
        assert report.availability == 1.0
        assert report.spec == {"construction": "mgrid", "params": {"b": 1, "side": 64}}

    def test_sampled_mode_scales_to_large_n(self):
        report = run(
            WorkloadSpec(
                system="mgrid", params={"n": 4096}, operations=2_000, seed=1,
                num_samples=256,
            )
        )
        assert report.sampled
        assert report.n == 4096
        assert report.availability == 1.0
        # Sampled-support load stays within 3x of L(Q) ~ 2/sqrt(n), doubled
        # for the sample's imbalance.
        assert report.empirical_load <= 3.0 * 2.0 / np.sqrt(4096) * 2.0

    def test_vectorised_run_does_no_python_work_per_operation(self, python_calls):
        """The facade adds spec resolution and report assembly per *run*, not per op.

        Python calls through ``api.run`` on the vectorised engine do not grow
        with the operation count (2 530 at both 20 000 and 40 000 operations
        on CPython 3.11).
        """

        def spec(operations):
            return WorkloadSpec(
                system="mgrid", params={"side": 7, "b": 3}, operations=operations, seed=3
            )

        run(spec(100))  # imports and construction caches
        calls_20k, report = python_calls(lambda: run(spec(20_000)))
        assert report.operations == 20_000
        assert report.availability == 1.0
        assert report.consistent
        calls_40k, report = python_calls(lambda: run(spec(40_000)))
        assert report.operations == 40_000
        assert abs(calls_40k - calls_20k) <= 64, (calls_20k, calls_40k)
        assert calls_20k <= 3_200, calls_20k

    def test_small_systems_stay_exact(self):
        report = run(
            WorkloadSpec(system="grid", params={"side": 4}, operations=50, seed=2)
        )
        assert not report.sampled

    def test_deterministic_in_seed(self):
        spec = WorkloadSpec(
            system="rt", params={"depth": 2}, scenario="iid-crash",
            operations=150, seed=21,
        )
        assert run(spec).to_dict() == run(spec).to_dict()

    def test_prebuilt_system_and_explicit_b(self):
        system = build("mgrid", side=4, b=1)
        report = run(WorkloadSpec(system=system, b=1, operations=60, seed=3))
        assert report.b == 1
        assert report.spec is not None

    def test_equivocate_is_rejected_on_the_event_engine(self):
        """The two-camp vouch model has no replica behaviour behind it."""
        spec = WorkloadSpec(
            system="mgrid", params={"side": 5, "b": 1}, scenario="equivocate",
            operations=40,
        )
        with pytest.raises(InvalidParameterError, match="vectorised engine"):
            run(spec, engine="event")
        assert run(spec).engine == "vectorized"

    def test_event_engine_runs_one_fault_state_in_any_shape(self):
        """A single-phase WorkloadScenario, its FaultScenario and its
        TimingScenario.static twin are one run on the event engine; only
        the scenario label, which echoes the input's name, may differ."""
        system = build("mgrid", side=4, b=1)
        elements = system.universe.elements
        state = FaultScenario(
            byzantine=frozenset(elements[:1]), crashed=frozenset(elements[5:6])
        )
        reports = []
        for shape in (
            WorkloadScenario.from_fault_scenario(state),
            state,
            TimingScenario.static(state),
        ):
            spec = WorkloadSpec(
                system=system, b=1, scenario=shape, operations=80, clients=4, seed=7
            )
            report = run(spec, engine="event").to_dict()
            report.pop("scenario")
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["consistent"] and reports[0]["operations"] == 80

    @pytest.mark.parametrize(
        "counter",
        ["write_order_violations", "duplicate_write_timestamps", "foreign_quorum_members"],
    )
    def test_report_verdict_is_the_history_checks(self, counter):
        """One meaning of consistent/consistency_violations on every report
        built from a HistoryCheck: ``check.ok`` and every non-stale counter."""
        system = build("mgrid", side=4, b=1)
        result = run_event_workload(
            system, b=1, num_clients=2, operations_per_client=10,
            rng=np.random.default_rng(3),
        )
        coordinates = dict(
            engine="event", system=system.name, n=system.n, b=1,
            scenario="fault-free", strategy="default", seed=3, sampled=False,
        )
        clean = assemble_report(result, result.check, **coordinates)
        assert clean.consistent and clean.consistency_violations == 0
        flagged = replace(result.check, **{counter: 1})
        report = assemble_report(result, flagged, **coordinates)
        assert report.consistent is False
        assert report.consistency_violations == 1 and report.stale_reads == 0
        stale = assemble_report(result, replace(result.check, stale_reads=2), **coordinates)
        assert stale.consistent is False
        assert (stale.consistency_violations, stale.stale_reads) == (0, 2)
        # Without a recorded history the engine's own counters decide.
        plain = assemble_report(result, None, **coordinates)
        assert plain.consistent and plain.to_dict() == clean.to_dict()

    @pytest.mark.parametrize("engine", ["vectorized", "event"])
    def test_fewer_operations_than_epochs_are_refused_on_both_engines(self, engine):
        """Two operations (one per client on the event engine) cannot cover
        three epochs: both engines refuse rather than run a bumped count."""
        spec = WorkloadSpec(
            "mgrid", {"side": 5, "b": 1}, scenario="reconfig-churn", operations=2, clients=4
        )
        with pytest.raises(SimulationError, match="at least one operation per epoch"):
            run(spec, engine=engine)

    @pytest.mark.parametrize(
        "scenario", ["fault-free", "slow-servers", "diurnal", "reconfig-churn"]
    )
    def test_event_runs_do_ceil_operations_per_client(self, scenario):
        """One operation-count rule on the event engine, whatever the scenario
        kind: 121 operations over 4 clients run 4 * 31 = 124, a trace
        replay's arrivals included."""
        spec = WorkloadSpec(
            "mgrid", {"side": 5, "b": 1}, scenario=scenario, operations=121, clients=4, seed=3
        )
        assert run(spec, engine="event").operations == 124

    def test_scenario_catalogue_is_documented(self):
        catalogue = available_scenarios()
        assert {"fault-free", "crash", "iid-crash", "byzantine",
                "slow-servers", "crash-recover"} <= set(catalogue)


class TestLegacyWrappers:
    """The pre-facade entry points stay as thin delegating paths."""

    def test_run_workload_still_works(self):
        from repro.simulation.runner import run_workload

        result = run_workload(
            build("mgrid", side=4, b=1), b=1, num_operations=50,
            rng=np.random.default_rng(0),
        )
        assert result.operations == 50

    def test_selector_includes_regular_systems_at_b0(self):
        from repro.analysis.selector import candidate_constructions

        names = [system.name for system in candidate_constructions(31, 0)]
        assert any(name.startswith("Wheel") for name in names)
        assert any(name.startswith("TreeQuorum") for name in names)
        # ...and they stay out of masking comparisons.
        names_b3 = [system.name for system in candidate_constructions(64, 3)]
        assert not any("Wheel" in name or "Tree" in name for name in names_b3)


class TestCLI:
    def _invoke(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_measure_grid_json(self):
        completed = self._invoke("measure", "grid", "--n", "25", "--json")
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["value"] == pytest.approx(0.36)
        assert payload["measure"] == "load"
        assert payload["method_used"] == "analytic"

    def test_measure_fp_matches_library(self):
        completed = self._invoke(
            "measure", "mgrid", "--side", "4", "--b", "1",
            "--measure", "fp", "--p", "0.1", "--json",
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        expected = measure("mgrid", "fp", side=4, b=1, p=0.1).value
        assert payload["value"] == pytest.approx(expected, abs=1e-12)

    def test_run_emits_schema_stable_report(self):
        completed = self._invoke(
            "run", "--construction", "mgrid", "--side", "4", "--b", "1",
            "--scenario", "crash", "--ops", "60", "--json",
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        assert tuple(payload) == WorkloadReport.SCHEMA

    def test_list_and_table_and_compare(self):
        listed = self._invoke("list", "--json")
        assert listed.returncode == 0, listed.stderr
        catalogue = json.loads(listed.stdout)
        assert set(catalogue["constructions"]) == set(available_constructions())

        table = self._invoke("table", "--n", "64", "--p", "0.125", "--json")
        assert table.returncode == 0, table.stderr
        assert len(json.loads(table.stdout)) >= 4

        compared = self._invoke(
            "compare", "grid", "mgrid", "--n", "16", "--b", "1",
            "--p", "0.1", "--json",
        )
        assert compared.returncode == 0, compared.stderr
        rows = json.loads(compared.stdout)
        assert [row["construction"] for row in rows] == ["grid", "mgrid"]

    def test_argument_errors_exit_2(self):
        completed = self._invoke("measure", "mgrid", "--n", "24", "--json")
        assert completed.returncode == 2
        assert "perfect square" in completed.stderr
