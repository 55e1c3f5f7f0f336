#!/usr/bin/env python3
"""Bit-identity digest of the run pipeline: one sha256 over a fixed matrix.

``PYTHONPATH=<tree>/src python scripts/run_digest.py`` prints the sha256 of
every simulator report, result and conformance check the matrix below
produces; two source trees whose digests agree produce bit-identical
numbers (floats are hashed by ``float.hex``).  Run each tree's own copy of
this script against its own ``src`` (``cd <tree> && PYTHONPATH=src python
scripts/run_digest.py``) to verify that a refactor of the run pipeline
changed no result: the rows are keyed by what they compute, not by the
function that computes them, so a tree that renames an entry point keeps
its keys.  ``--dump`` prints the hashed lines instead, for diffing two
trees.

The matrix treats any rejected facade call as ``rejected`` whatever the
exception class:

* ``api.run(...).to_dict()`` for every catalogue scenario x both engines x
  2 seeds on ``mgrid(side=5, b=1)``, plus the benchmark's two ``sim_*``
  specs on ``mgrid(49, 3)``;
* the full ``AdversarialResult`` of both adaptive policies (one run with
  uneven round sizes, one with a single round);
* a churn ``MembershipTimeline`` through ``run_workload`` in both modes and
  through ``run_event_workload`` (epoch dicts, per-epoch per-server tallies,
  check counters, windows);
* a diurnal ``TraceScenario`` through ``run_event_workload``;
* every check of ``adversarial_``, ``reconfig_``, ``percolation_``,
  ``service_`` and ``recovery_conformance`` — the last two on the offline
  replay of the pinned live history under ``tests/fixtures/``;
* the measure ladder (PR 14): ``api.measure(...).to_dict()`` for every
  registry construction at a small size plus the benchmark's
  ``measure_sweep`` systems x 8 measures x ``auto|exact|analytic|sampled``
  x ``p in {0.1, 0.3}`` under one fixed ``Budget``, and the primitive paths
  (``analytic_*`` / ``exact_*``) called directly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import MGrid, api
from repro.analysis import (
    adversarial_conformance,
    availability_trend,
    candidate_constructions,
    percolation_conformance,
    reconfig_conformance,
    recovery_conformance,
    section8_comparison,
    section45_comparison,
    service_conformance,
    table2,
)
from repro.api.registry import SystemSpec, build, spec_of
from repro.api.scenarios import available_scenarios
from repro.core import (
    Membership,
    analytic_failure_probability,
    analytic_load,
    exact_failure_probability,
    exact_load,
    plan_events,
    unwrap,
)
from repro.exceptions import ReproError
from repro.simulation import (
    AdaptiveScenario,
    GreedyLoadAdversary,
    MembershipTimeline,
    StaleReadAdversary,
    TraceScenario,
    resolve_strategy,
    run_event_workload,
    run_workload,
)
from repro.simulation.history import check_register_history, load_history_jsonl

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SEEDS = (3, 11)


def canon(value):
    """JSON-able canonical form; floats by ``hex`` so equality is bitwise."""
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {repr(key): canon(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    return repr(value)


RESULT_FIELDS = (
    "operations", "successful_reads", "successful_writes", "failed_operations",
    "consistency_violations", "stale_reads", "empirical_load", "availability",
    "per_server_load", "per_server_messages", "per_server_attempted",
)
CLOCK_FIELDS = (
    "duration", "events_processed", "timeouts",
    "latency_mean", "latency_p50", "latency_p90", "latency_p99",
)
CHECK_FIELDS = (
    "operations", "concurrent_pairs", "fabricated_reads", "stale_reads",
    "write_order_violations", "duplicate_write_timestamps",
    "foreign_quorum_members", "ok",
)


def fields(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def checks(report) -> list:
    return [
        (c.metric, c.observed, c.bound, c.direction, c.slack) for c in report.checks
    ]


def facade_rows():
    specs = [
        (api.WorkloadSpec("mgrid", params={"side": 5, "b": 1}, scenario=name,
                          operations=120, seed=seed), engine)
        for name in available_scenarios()
        for engine in ("vectorized", "event")
        for seed in SEEDS
    ]
    specs += [
        (api.WorkloadSpec("mgrid", params={"n": 49, "b": 3}, scenario=scenario,
                          clients=8, operations=operations, seed=seed), engine)
        for scenario, engine, operations in (
            ("slow-servers", "event", 400), ("byzantine", "vectorized", 20_000)
        )
        for seed in SEEDS
    ]
    for spec, engine in specs:
        key = f"api.run/{spec.params}/{spec.scenario}/{engine}/{spec.seed}"
        try:
            yield key, api.run(spec, engine=engine).to_dict()
        except ReproError:
            yield key, "rejected"


def adversarial_rows(system):
    for policy in (GreedyLoadAdversary(), StaleReadAdversary()):
        for operations, rounds in ((203, 8), (49, 1)):
            result = run_workload(
                system, b=1, num_operations=operations,
                scenario=AdaptiveScenario("adaptive", policy=policy, rounds=rounds),
                rng=np.random.default_rng(SEEDS[0]),
            )
            yield f"adversarial/{type(policy).__name__}/{operations}/{rounds}", {
                **fields(result, RESULT_FIELDS),
                "rounds": [
                    (r.index, r.fault.crashed, r.fault.byzantine,
                     fields(r.result, RESULT_FIELDS))
                    for r in result.rounds
                ],
                "strategy": result.strategy.probabilities.tolist(),
            }
        result, report = adversarial_conformance(
            system,
            b=1,
            scenario=AdaptiveScenario(name="adaptive", policy=policy, rounds=8),
            num_operations=300,
            seed=SEEDS[1],
        )
        yield f"adversarial_conformance/{type(policy).__name__}", {
            **fields(result, RESULT_FIELDS), "checks": checks(report),
        }


def _churn(system, policy="reweight") -> MembershipTimeline:
    ring = system.n - 16
    events = plan_events(system.universe, [("sever", ring), ("join", ring)])
    return MembershipTimeline(membership=Membership(system.universe, events), policy=policy)


def _epochs(result) -> list:
    return [
        (o.to_dict(), o.strategy.probabilities.tolist(), fields(o.result, RESULT_FIELDS))
        for o in result.outcomes
    ]


def reconfig_rows(system):
    for mode in ("vectorised", "sequential"):
        for policy in ("reweight", "resolve", "uniform"):
            timeline = _churn(system, policy)
            result = run_workload(
                system, scenario=timeline, num_operations=150,
                rng=np.random.default_rng(SEEDS[1]), mode=mode,
            )
            report = reconfig_conformance(result, system, timeline.membership)
            yield f"reconfig/{mode}/{policy}", {
                "epochs": _epochs(result), "checks": checks(report),
            }
    result = run_event_workload(
        system, scenario=_churn(system), num_clients=4, operations_per_client=18,
        rng=np.random.default_rng(SEEDS[1]), keep_history=True,
    )
    yield "reconfig/event", {
        "epochs": _epochs(result),
        "clock": [fields(o.result, CLOCK_FIELDS) for o in result.outcomes],
        "check": fields(result.check, CHECK_FIELDS),
        "windows": [(w.index, w.start, w.end, w.members) for w in result.windows],
        "history": len(result.history),
    }


def trace_rows(system):
    for seed in SEEDS:
        result = run_event_workload(
            system, b=1, scenario=TraceScenario(name="diurnal", skew=1.0),
            num_clients=4, operations_per_client=40, rng=np.random.default_rng(seed),
        )
        yield f"trace/diurnal/{seed}", {
            **fields(result, RESULT_FIELDS + CLOCK_FIELDS),
            **fields(result, ("queue_delay_mean", "queue_delay_p99", "arrival_rate")),
            "check": fields(result.check, CHECK_FIELDS),
        }


@dataclass
class Replay:
    """ServiceRunResult-shaped view of the pinned live history (duck-typed)."""

    system: object
    b: int
    strategy: object
    records: list
    check: object
    per_server_load: dict


def replay_rows():
    meta = json.loads((FIXTURES / "service_mgrid_meta.json").read_text())
    records = load_history_jsonl(FIXTURES / "service_mgrid_history.jsonl")
    system = build(SystemSpec(construction="mgrid", params=dict(meta["spec"]["params"])))
    successful = [record for record in records if record.success]
    replay = Replay(
        system=system,
        b=meta["b"],
        strategy=resolve_strategy(system, meta["strategy"]),
        records=records,
        check=check_register_history(records),
        per_server_load={
            server: sum(1 for r in successful if r.quorum and server in r.quorum)
            / max(1, len(successful))
            for server in system.universe
        },
    )
    yield "service_conformance/replay", checks(service_conformance(replay))
    crashed = [system.universe.element_at(0)]
    yield "service_conformance/replay+crash", checks(
        service_conformance(replay, crash_sets=[crashed])
    )
    yield "recovery_conformance/replay", checks(
        recovery_conformance(
            replay, server_id=crashed[0], recovered_timestamp=(10**6, 0),
            post_result=replay,
        )
    )


MEASURE_SPECS: tuple[tuple[str, dict], ...] = (
    # Every registry construction at a small size ...
    ("boostfpp", {"q": 2, "b": 1}),
    ("crumbling-wall", {"rows": (2, 3, 4)}),
    ("fpp", {"q": 2}),
    ("grid", {"side": 3}),
    ("majority", {"n": 5}),
    ("masking-grid", {"side": 4, "b": 1}),
    ("mgrid", {"side": 4, "b": 1}),
    ("mpath", {"side": 4, "b": 1}),
    ("rt", {"k": 4, "l": 3, "depth": 1}),
    ("threshold", {"n": 9, "b": 2}),
    ("tree", {"depth": 2}),
    ("wheel", {"n": 6}),
    # ... and the systems of the benchmark's measure_sweep workload.
    ("mgrid", {"n": 49, "b": 3}),
    ("grid", {"n": 49}),
    ("threshold", {"n": 13, "b": 3}),
    ("mpath", {"n": 49, "b": 1}),
    ("fpp", {"q": 3}),
    ("boostfpp", {"q": 3, "b": 1}),
    ("rt", {"k": 4, "l": 3, "depth": 2}),
    ("majority", {"n": 11}),
)
MEASURE_PS = (0.1, 0.3)


def _or_rejected(view, call, *args, **kwargs):
    """``view(call(...))``, or ``"rejected"`` when the library refuses the call."""
    try:
        return view(call(*args, **kwargs))
    except ReproError:
        return "rejected"


def measure_rows():
    budget = api.Budget(trials=400, seed=SEEDS[1])
    for construction, params in MEASURE_SPECS:
        system = api.build(construction, **params)
        where = f"{construction}/{params}"
        for name in sorted(api.available_measures()):
            for p in MEASURE_PS if name in ("fp", "availability") else (None,):
                for method in ("auto", "exact", "analytic", "sampled"):
                    yield f"measure/{where}/{name}/{method}/{p}", _or_rejected(
                        lambda result: result.to_dict(),
                        api.measure, system, name, method=method, p=p, budget=budget,
                    )
        for load in (analytic_load, exact_load):
            yield f"{load.__name__}/{where}", _or_rejected(
                lambda result: (result.load, result.method), load, system
            )
        for fp in (analytic_failure_probability, exact_failure_probability):
            for p in MEASURE_PS:
                yield f"{fp.__name__}/{where}/{p}", _or_rejected(
                    lambda result: (result.value, result.method), fp, system, p
                )


#: ``availability_trend`` cases of ``tests/test_analysis.py::TestAvailabilityTrends``.
TREND_CASES = (
    ("M-Grid", (25, 81, 169), 0.2),
    ("Grid", (25, 81, 169), 0.2),
    ("Threshold", (25, 81, 169), 0.2),
    ("RT(4,3)", (16, 64, 256), 0.15),
    ("boostFPP", (25, 81, 169), 0.15),
    ("M-Path", (25, 81, 169), 0.3),
)
#: Two universe sizes each registry construction (the first twelve
#: ``MEASURE_SPECS``, in order) is rebound to, one after the other.
REBIND_SIZES = (
    (63, 7), (12, 5), (13, 8), (16, 10), (8, 3), (25, 9),
    (25, 14), (25, 9), (16, 8), (13, 8), (15, 9), (9, 2),
)


def _rebind_rows(construction, params, sizes):
    system = build(construction, **params)
    steps, current = [], system.n
    for size in sizes:
        steps.append(("join" if size > current else "sever", abs(size - current)))
        current = size
    membership = Membership(system.universe, plan_events(system.universe, steps))
    for epoch, size in enumerate(sizes, start=1):
        yield f"rebind/{construction}/{params}/{size}", _or_rejected(
            lambda rebound: (spec_of(unwrap(rebound)).to_dict(), rebound.n),
            membership.rebind, system, epoch,
        )


def analysis_rows():
    for n in (64, 256):
        for p in (0.125, 0.4):
            rows = table2(n, p, rng=np.random.default_rng(SEEDS[0]))
            yield f"table2/{n}/{p}", [asdict(row) for row in rows]
    for name, sizes, p in TREND_CASES:
        yield f"availability_trend/{name}/{p}", availability_trend(
            name, list(sizes), p, rng=np.random.default_rng(SEEDS[0])
        )
    for n in (256, 1024):
        profiles = section8_comparison(
            n=n, p=0.125, rng=np.random.default_rng(SEEDS[0]), include_baselines=True
        )
        yield f"section8_comparison/{n}", [asdict(profile) for profile in profiles]
    for name, family in section45_comparison().items():
        yield f"section45_comparison/{name}", asdict(family)
    for n, b in ((31, 0), (64, 3), (64, 10), (1024, 7)):
        yield f"candidate_constructions/{n}/{b}", [
            (system.name, spec_of(system).to_dict())
            for system in candidate_constructions(n, b)
        ]
    for (construction, params), sizes in zip(MEASURE_SPECS, REBIND_SIZES):
        yield from _rebind_rows(construction, params, sizes)


def rows():
    system = MGrid(5, 1)
    yield from facade_rows()
    yield from adversarial_rows(system)
    yield from reconfig_rows(system)
    yield from trace_rows(system)
    for p in (0.1, 0.3):
        result, report = percolation_conformance(system, p=p, phases=60, seed=SEEDS[0])
        yield f"percolation_conformance/{p}", {
            **fields(result, RESULT_FIELDS), "checks": checks(report),
        }
    yield from replay_rows()
    yield from measure_rows()
    yield from analysis_rows()


def main(argv: list[str]) -> int:
    lines = [
        f"{key}\t{json.dumps(canon(value), sort_keys=True)}" for key, value in rows()
    ]
    if "--dump" in argv:
        print("\n".join(lines))
    else:
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{digest}  {len(lines)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
