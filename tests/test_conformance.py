"""Conformance-layer tests: the check algebra and the load/availability math.

:mod:`repro.analysis.conformance` turns "empirical metric vs paper bound"
into reusable assertions.  These tests pin the algebra (directions, slack,
margins, ``require`` raising) and the two mathematical facts the load checks
stand on:

* the restricted induced load of any crash set is at least the LP value
  ``L(Q)`` — restricting the quorum family only shrinks the feasible set of
  the Definition 3.8 LP; and
* the worst case over all crash sets of size up to ``b`` dominates every
  individual one and grows with the budget.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import MGrid, majority
from repro.analysis import (
    ConformanceCheck,
    ConformanceReport,
    availability_conformance,
    load_conformance,
    masking_conformance,
    percolation_conformance,
    reconfig_conformance,
    recovery_conformance,
    restricted_induced_loads,
    service_conformance,
    worst_case_induced_load,
)
from repro.core import Membership
from repro.core.load import exact_load
from repro.exceptions import (
    ComputationError,
    ConformanceError,
    InvalidParameterError,
)
from repro.simulation import (
    AdaptiveScenario,
    EpochOutcome,
    GreedyLoadAdversary,
    HistoryCheck,
    ReconfigResult,
    run_workload,
)
from repro.simulation.engine import resolve_strategy


@pytest.fixture
def system():
    return MGrid(5, 1)


# ----------------------------------------------------------------------
# The check algebra.
# ----------------------------------------------------------------------
class TestCheckAlgebra:
    def test_upper_bound_direction(self):
        assert ConformanceCheck("m", observed=0.5, bound=0.6).ok
        assert not ConformanceCheck("m", observed=0.7, bound=0.6).ok
        assert ConformanceCheck("m", observed=0.7, bound=0.6, slack=0.2).ok

    def test_lower_bound_direction(self):
        check = ConformanceCheck("m", observed=0.5, bound=0.6, direction=">=")
        assert not check.ok
        assert ConformanceCheck(
            "m", observed=0.5, bound=0.6, direction=">=", slack=0.15
        ).ok

    def test_margin_is_signed_distance_from_slackened_bound(self):
        check = ConformanceCheck("m", observed=0.5, bound=0.6, slack=0.1)
        assert check.margin == pytest.approx(0.2)
        failing = ConformanceCheck("m", observed=0.9, bound=0.6)
        assert failing.margin == pytest.approx(-0.3)

    def test_require_raises_with_context(self):
        check = ConformanceCheck("load", observed=0.9, bound=0.6, detail="why")
        with pytest.raises(ConformanceError, match="load.*why"):
            check.require()
        ConformanceCheck("load", observed=0.5, bound=0.6).require()  # no raise

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ConformanceCheck("m", observed=0.5, bound=0.6, direction="<")
        with pytest.raises(InvalidParameterError):
            ConformanceCheck("m", observed=0.5, bound=0.6, slack=-0.1)

    def test_report_collects_failures_and_lookups(self):
        good = ConformanceCheck("a", observed=0.1, bound=0.2)
        bad = ConformanceCheck("b", observed=0.3, bound=0.2)
        report = ConformanceReport(checks=(good, bad))
        assert not report.ok
        assert report.failures == (bad,)
        assert report.check("a") is good
        with pytest.raises(InvalidParameterError):
            report.check("missing")
        with pytest.raises(ConformanceError):
            report.require()

    def test_to_dict_is_json_stable(self):
        import json

        report = ConformanceReport(
            checks=(ConformanceCheck("a", observed=0.1, bound=0.2, detail="d"),)
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["checks"][0]["metric"] == "a"
        assert payload["checks"][0]["observed"] == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Restricted / worst-case load math.
# ----------------------------------------------------------------------
class TestLoadBounds:
    def test_empty_crash_set_recovers_the_strategy_load(self, system):
        strategy = resolve_strategy(system, None)
        loads = restricted_induced_loads(strategy, system.universe, [frozenset()])
        assert loads[0] == pytest.approx(exact_load(system).load)

    def test_restriction_never_beats_the_lp(self, system):
        """L(restricted) >= L(Q): the LP optimises over every strategy, and
        conditioning on surviving quorums is just another strategy."""
        strategy = resolve_strategy(system, None)
        lp = exact_load(system).load
        universe = system.universe
        singles = [frozenset([server]) for server in universe.elements]
        loads = restricted_induced_loads(strategy, universe, singles)
        assert np.all(loads[~np.isnan(loads)] >= lp - 1e-12)

    def test_total_wipeout_yields_nan(self, system):
        strategy = resolve_strategy(system, None)
        loads = restricted_induced_loads(
            strategy, system.universe, [frozenset(system.universe.elements)]
        )
        assert np.isnan(loads[0])

    def test_worst_case_grows_with_the_budget(self, system):
        strategy = resolve_strategy(system, None)
        b0 = worst_case_induced_load(system, strategy, b=0)
        b1 = worst_case_induced_load(system, strategy, b=1)
        b2 = worst_case_induced_load(system, strategy, b=2)
        assert b0 == pytest.approx(exact_load(system).load)
        assert b0 <= b1 <= b2 <= 1.0

    def test_worst_case_respects_the_enumeration_limit(self, system):
        with pytest.raises(ComputationError):
            worst_case_induced_load(system, b=10, limit=100)
        with pytest.raises(InvalidParameterError):
            worst_case_induced_load(system, b=-1)


# ----------------------------------------------------------------------
# Availability and masking checks.
# ----------------------------------------------------------------------
class TestAvailabilityAndMasking:
    def test_availability_brackets_the_analytic_fp(self):
        system = majority(9)
        report = availability_conformance(0.1, system, p=0.3, trials=200)
        upper = report.check("failure-rate-upper")
        lower = report.check("failure-rate-lower")
        assert upper.bound == lower.bound  # both anchored at the same Fp
        assert upper.slack > 0

    def test_availability_flags_an_impossible_rate(self):
        system = majority(9)
        report = availability_conformance(0.9, system, p=0.1, trials=10_000)
        assert not report.ok
        assert report.check("failure-rate-upper") in report.failures

    def test_masking_on_a_clean_run(self, system):
        result = run_workload(
            system, b=1, num_operations=100, rng=np.random.default_rng(0)
        )
        report = masking_conformance(result, b=1)
        report.require()
        # A plain (non-adversarial) result carries no rounds, so there is no
        # byzantine-budget check to make.
        assert {check.metric for check in report.checks} == {
            "fabricated-reads",
            "stale-read-rate",
        }

    def test_percolation_conformance_end_to_end(self, system):
        result, report = percolation_conformance(
            system, p=0.15, phases=120, operations_per_phase=3, seed=5
        )
        report.require()
        assert result.operations == 360

    def test_percolation_conformance_validates_inputs(self, system):
        with pytest.raises(InvalidParameterError):
            percolation_conformance(system, p=0.15, operations_per_phase=0)


# ----------------------------------------------------------------------
# One definition per bound: the same run reaches each builder through every
# public function that composes it and must get the same check back.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def one_run_many_views():
    """One fault-free adversarial run, also dressed as a one-epoch
    reconfiguration result and as a ServiceRunResult-shaped object."""
    system = MGrid(5, 1)
    run = run_workload(
        system,
        b=1,
        scenario=AdaptiveScenario(
            "adaptive", policy=GreedyLoadAdversary(corruptions=0), rounds=4
        ),
        num_operations=240,
        rng=np.random.default_rng(17),
    )
    epoch = EpochOutcome(
        index=0, n=system.n, b=1, system_name=system.name, policy="initial",
        support_size=len(run.strategy), result=run, strategy=run.strategy,
    )
    live = SimpleNamespace(
        system=system,
        b=1,
        strategy=run.strategy,
        per_server_load=run.per_server_load,
        check=HistoryCheck(
            operations=run.operations, concurrent_pairs=0,
            fabricated_reads=run.consistency_violations, stale_reads=run.stale_reads,
        ),
        records=[SimpleNamespace(success=True, kind="read", timestamp=None, quorum=None)]
        * run.successful_reads
        + [SimpleNamespace(success=True, kind="write", timestamp=None, quorum=None)]
        * run.successful_writes,
    )
    reports = {
        "load": load_conformance(run, system, b=1),
        "masking": masking_conformance(run, b=1),
        "service": service_conformance(live),
        "reconfig": reconfig_conformance(
            ReconfigResult(outcomes=(epoch,), whole=run), system,
            Membership(system.universe, []),
        ),
        "recovery": recovery_conformance(
            live, server_id=0, recovered_timestamp=(1, 0), post_result=live
        ),
    }
    return {
        name: {
            check.metric: (check.observed, check.bound, check.direction, check.slack)
            for check in report.checks
        }
        for name, report in reports.items()
    }


@pytest.mark.parametrize(
    "reached_through",
    [
        # builder: {public function: the metric name it files the bound under}
        {"load": "load-envelope", "service": "load-envelope"},
        {
            "load": "load-worst-case",
            "service": "load-worst-case",
            "reconfig": "load-envelope[e0]",
        },
        {
            "load": "load-lp-lower-bound",
            "service": "load-lp-lower-bound",
            "reconfig": "load-lp-lower-bound[e0]",
        },
        {
            "masking": "fabricated-reads",
            "service": "fabricated-reads",
            "reconfig": "fabricated-reads[e0]",
            "recovery": "post-restart-fabricated",
        },
        {
            "masking": "stale-read-rate",
            "service": "stale-read-rate",
            "reconfig": "stale-read-rate[e0]",
            "recovery": "post-restart-stale-rate",
        },
    ],
    ids=["envelope", "worst-case", "lp-lower-bound", "fabricated", "stale"],
)
def test_each_bound_is_the_same_check_through_every_entry_point(
    one_run_many_views, reached_through
):
    found = {
        one_run_many_views[function][metric]
        for function, metric in reached_through.items()
    }
    assert len(found) == 1, found
    observed, bound, direction, slack = found.pop()
    assert direction in ("<=", ">=") and slack >= 0.0 and bound >= 0.0
