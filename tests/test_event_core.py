"""Contract, identity and cost tests of the discrete-event core.

* **Identity.**  One sha256 over every protocol-visible output of
  ``run_event_workload`` — the full history, the per-server tallies,
  ``timeouts`` and ``events_processed`` — for each timing scenario on
  ``mgrid(5, 1)`` and a contended ``threshold(5, 1)`` run, floats hashed by
  ``float.hex``.  The pinned value is what the event core produced before
  its per-message path was rewritten; any change to the order of events or
  of rng draws moves it.
* **Scheduler contract.**  Callbacks receive their ``*args``; ties fire in
  scheduling order; cancelled handles are skipped; the clock never jumps
  past a pending event; non-finite times and timing knobs are rejected.
* **Cached invariants.**  ``LatencyModel``/``LinkFaults``/``FaultScenario``
  compute their flags and factor maps once; the cached views must agree with
  the declared fields.
* **Cost.**  A Python-call budget per operation of the ``sim_events``
  benchmark's run, counted with ``sys.setprofile`` — an integer that does
  not depend on how busy the machine is.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from repro import MGrid, SimulationError, ThresholdQuorumSystem, api
from repro.simulation import (
    EventScheduler,
    FaultScenario,
    LatencyModel,
    LinkFaults,
    RetryPolicy,
    TimingScenario,
    run_event_workload,
)
from repro.simulation.scenarios import timing_scenario_suite


def canon(value):
    """JSON-able canonical form; floats by ``hex`` so equality is bitwise."""
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return {repr(key): canon(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    return repr(value)


def result_rows(result) -> list:
    return [
        [canon(asdict(record)) for record in result.history],
        canon(result.per_server_load),
        canon(result.per_server_attempted),
        canon(result.per_server_messages),
        result.timeouts,
        result.events_processed,
    ]


def identity_rows() -> list:
    rows = []
    system = MGrid(5, 1)
    for seed in (3, 11):
        suite = timing_scenario_suite(
            system.universe, b=1, rng=np.random.default_rng(seed)
        )
        for scenario in suite:
            result = run_event_workload(
                system,
                b=1,
                num_clients=4,
                operations_per_client=12,
                scenario=scenario,
                rng=np.random.default_rng(seed),
                keep_history=True,
            )
            rows.append([scenario.name, seed, result_rows(result)])
    # Quorums of 3 out of 5 meet in one server, so reads often find no pair
    # vouched by b + 1 = 2 replicas: the unvouched-read retry path runs.
    contended = ThresholdQuorumSystem(5, 3)
    for retry in (False, True):
        result = run_event_workload(
            contended,
            b=1,
            num_clients=8,
            operations_per_client=10,
            scenario=TimingScenario.static(
                FaultScenario.fault_free(), latency=LatencyModel.uniform(0.1, 4.0)
            ),
            retry_unvouched_reads=retry,
            rng=np.random.default_rng(5),
            keep_history=True,
        )
        rows.append(["contended", retry, result_rows(result)])
    return rows


#: ``identity_rows()`` as the event core produced it before the
#: per-message path was rewritten (tuple heap entries, callbacks with
#: arguments, cached latency/fault invariants): that rewrite changed no
#: event order and no rng draw.
IDENTITY_SHA256 = "7f32829be61a665e5b5ef9674ab6a80763938f8eb3ebcba0912a354e98b52963"


def test_event_results_are_bit_identical():
    blob = json.dumps(identity_rows(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == IDENTITY_SHA256


# ----------------------------------------------------------------------
# The scheduler contract.
# ----------------------------------------------------------------------
class TestSchedulerContract:
    def test_arguments_reach_the_callback(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, fired.append, "a")
        scheduler.schedule(0.5, lambda *args: fired.append(args), 1, "two", None)
        assert scheduler.run() == 2
        assert fired == [(1, "two", None), "a"]

    def test_ties_with_arguments_fire_in_scheduling_order(self):
        scheduler = EventScheduler()
        fired = []
        for label in range(6):
            scheduler.schedule(2.0, fired.append, label)
        scheduler.schedule(1.0, fired.append, "first")
        scheduler.run()
        assert fired == ["first", 0, 1, 2, 3, 4, 5]

    def test_a_cancelled_handle_is_skipped_and_releases_its_callback(self):
        scheduler = EventScheduler()
        fired = []
        skipped = scheduler.schedule(1.0, fired.append, "no")
        scheduler.schedule(1.0, fired.append, "yes")
        skipped.cancel()
        assert skipped.cancelled and skipped.args == ()
        assert scheduler.pending == 1
        assert scheduler.run() == 1
        assert fired == ["yes"]
        assert scheduler.events_processed == 1

    def test_the_clock_never_jumps_past_a_pending_event(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(1.0, lambda: seen.append(scheduler.now))
        scheduler.schedule(1.5, lambda: seen.append(scheduler.now))
        assert scheduler.run(until=2.0, max_events=1) == 1
        assert scheduler.now == 1.0
        scheduler.run()
        assert seen == [1.0, 1.5]

    def test_until_advances_the_clock_past_cancelled_events(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(1.5, lambda: None).cancel()
        scheduler.schedule(3.0, lambda: None)
        assert scheduler.run(until=2.0, max_events=1) == 1
        assert scheduler.now == 2.0
        assert scheduler.pending == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: EventScheduler().schedule(math.nan, lambda: None),
        lambda: EventScheduler().schedule(math.inf, lambda: None),
        lambda: EventScheduler().run(until=math.nan),
        lambda: LatencyModel(base=math.nan),
        lambda: LatencyModel(jitter=math.inf),
        lambda: LatencyModel(server_factors=(("s", math.nan),)),
        lambda: RetryPolicy(request_timeout=math.nan),
        lambda: FaultScenario(slow={0: math.nan}),
        lambda: TimingScenario(
            "x", ((0.0, FaultScenario.fault_free()), (math.nan, FaultScenario.fault_free()))
        ),
    ],
    ids=[
        "schedule-nan",
        "schedule-inf",
        "run-until-nan",
        "latency-base-nan",
        "latency-jitter-inf",
        "latency-factor-nan",
        "request-timeout-nan",
        "slow-factor-nan",
        "timeline-time-nan",
    ],
)
def test_non_finite_times_are_rejected(build):
    with pytest.raises(SimulationError):
        build()


# ----------------------------------------------------------------------
# Invariants computed once.
# ----------------------------------------------------------------------
def first_factor(pairs, server_id) -> float:
    for known_id, factor in pairs:
        if known_id == server_id:
            return factor
    return 1.0


class TestCachedInvariants:
    @pytest.mark.parametrize(
        "model",
        [
            LatencyModel(),
            LatencyModel(base=1e-12),
            LatencyModel.uniform(1.0, 0.5),
            LatencyModel(tail_mean=2.0),
            LatencyModel(base=1.0, server_factors=(("a", 3.0), ("b", 2.0), ("a", 5.0))),
        ],
    )
    def test_latency_views_match_the_fields(self, model):
        assert model.is_zero == (
            model.base < 1e-9 and model.jitter < 1e-9 and model.tail_mean < 1e-9
        )
        for server_id in ("a", "b", "c"):
            assert model.factor_for(server_id) == first_factor(model.server_factors, server_id)
        rng = np.random.default_rng(0)
        if not model.is_zero:
            assert model.sample(rng, "a") > 0.0

    def test_duplicate_factor_ids_keep_the_first_entry(self):
        model = LatencyModel(base=1.0, server_factors=(("a", 3.0), ("a", 5.0)))
        assert model.factor_for("a") == 3.0
        assert model.sample(np.random.default_rng(0), "a") == 3.0
        scenario = FaultScenario(slow=(("a", 2.0), ("a", 4.0)))
        assert scenario.slow_factor("a") == 2.0
        assert scenario.slow_factor("b") == 1.0

    @pytest.mark.parametrize(
        "faults",
        [LinkFaults(), LinkFaults(loss=1e-12), LinkFaults(loss=0.2), LinkFaults(duplication=0.1)],
    )
    def test_link_views_match_the_fields(self, faults):
        assert faults.is_clean == (faults.loss < 1e-9 and faults.duplication < 1e-9)

    def test_equality_and_hash_ignore_the_cached_views(self):
        warm = LatencyModel(base=1.0, server_factors=(("a", 2.0),))
        assert warm.is_zero is False and warm.factor_for("a") == 2.0
        cold = LatencyModel(base=1.0, server_factors=(("a", 2.0),))
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        clean = LinkFaults()
        assert clean.is_clean and clean == LinkFaults() and hash(clean) == hash(LinkFaults())


# ----------------------------------------------------------------------
# Cost: Python-level calls per operation of the sim_events run.
# ----------------------------------------------------------------------
#: Calls per operation of ``cost_spec(320)``: 837 on CPython 3.11 after the
#: per-message rewrite (2 231 before it).  The budget leaves ~20 % for
#: interpreter differences across the supported versions.
CALLS_PER_OP_BUDGET = 1000


def cost_spec(operations: int) -> api.WorkloadSpec:
    return api.WorkloadSpec(
        "mgrid",
        params={"n": 49, "b": 3},
        scenario="slow-servers",
        clients=8,
        operations=operations,
        seed=7,
    )


def test_python_calls_per_event_operation_stay_within_budget(python_calls):
    api.run(cost_spec(16), engine="event")  # imports and construction caches
    calls, report = python_calls(lambda: api.run(cost_spec(320), engine="event"))
    per_operation = calls / report.operations
    assert report.operations == 320 and report.failed_operations == 0
    assert per_operation <= CALLS_PER_OP_BUDGET, f"{per_operation:.1f} Python calls per operation"
