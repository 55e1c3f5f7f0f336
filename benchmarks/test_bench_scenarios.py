"""Benchmark for the adversarial / correlated / trace scenario layer.

Three seed-pinned runs, each checked against the paper's bounds and recorded
into ``BENCH_scenarios.json`` at the repository root — the first
machine-readable benchmark artefact, so CI (and future PRs) can diff the
numbers instead of re-reading log output:

* an **adaptive greedy-load adversary** on the Figure 1 M-Grid (5×5,
  ``b = 1``): the corruption trajectory, the aggregate empirical load and
  its conformance margins against the restricted-strategy envelope and the
  ``L(Q)`` lower bound;
* a **site-percolation availability cross-check**: observed failure rate
  over independent lattice draws vs the closed-form ``Fp``;
* a **diurnal open-loop trace replay**: sojourn-time percentiles and the
  queueing component that only an open-loop workload can measure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from conftest import ARTIFACT_SCHEMA_VERSION, format_table, run_metadata, write_artifact

from repro import MGrid
from repro.analysis import adversarial_conformance, percolation_conformance
from repro.simulation import (
    GreedyLoadAdversary,
    StaleReadAdversary,
    TraceScenario,
    run_trace_workload,
)

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_scenarios.json"

GRID_SIDE = 5
MASKING_B = 1
SEED = 20240614


def _adversarial_payload() -> dict:
    payloads = {}
    for label, policy in (
        ("greedy-load", GreedyLoadAdversary()),
        ("stale-read", StaleReadAdversary()),
    ):
        result, report = adversarial_conformance(
            MGrid(GRID_SIDE, MASKING_B),
            b=MASKING_B,
            policy=policy,
            num_operations=800,
            rounds=8,
            seed=SEED,
        )
        report.require()
        payloads[label] = {
            "empirical_load": result.empirical_load,
            "corruption_trajectory": [
                sorted(map(str, chosen)) for chosen in result.corruption_trajectory
            ],
            "fabricated_reads": result.consistency_violations,
            "stale_reads": result.stale_reads,
            "checks": report.to_dict()["checks"],
        }
    return payloads


def _percolation_payload() -> dict:
    result, report = percolation_conformance(
        MGrid(GRID_SIDE, MASKING_B),
        p=0.15,
        phases=300,
        operations_per_phase=3,
        seed=SEED,
    )
    report.require()
    upper = report.check("failure-rate-upper")
    return {
        "p": 0.15,
        "phases": 300,
        "observed_failure_rate": upper.observed,
        "analytic_fp": upper.bound,
        "binomial_slack": upper.slack,
        "checks": report.to_dict()["checks"],
    }


def _trace_payload() -> dict:
    trace = TraceScenario(name="diurnal", period=120.0, peak_ratio=4.0, skew=1.1)
    result = run_trace_workload(
        MGrid(GRID_SIDE, MASKING_B),
        b=MASKING_B,
        trace=trace,
        num_operations=400,
        num_clients=8,
        rng=np.random.default_rng(SEED),
    )
    assert result.check is not None and result.check.ok
    return {
        "operations": result.operations,
        "arrival_rate": result.arrival_rate,
        "latency_mean": result.latency_mean,
        "latency_p50": result.latency_p50,
        "latency_p99": result.latency_p99,
        "queue_delay_mean": result.queue_delay_mean,
        "queue_delay_p99": result.queue_delay_p99,
        "empirical_load": result.empirical_load,
    }


def test_scenario_suite_conformance_artifact():
    """Run the three scenario families, require conformance, record the JSON."""
    payload = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "metadata": run_metadata("benchmarks/test_bench_scenarios.py"),
        "system": f"mgrid(side={GRID_SIDE}, b={MASKING_B})",
        "seed": SEED,
        "adversarial": _adversarial_payload(),
        "percolation": _percolation_payload(),
        "diurnal_trace": _trace_payload(),
    }
    write_artifact(ARTIFACT, payload)

    adversarial = payload["adversarial"]["greedy-load"]
    rows = [
        [
            "adaptive greedy-load",
            f"{adversarial['empirical_load']:.4f}",
            " / ".join(
                f"{check['metric']}:{check['bound']:.3f}"
                for check in adversarial["checks"]
                if check["metric"].startswith("load")
            ),
        ],
        [
            "percolation (p=0.15)",
            f"{payload['percolation']['observed_failure_rate']:.4f}",
            f"Fp={payload['percolation']['analytic_fp']:.4f}"
            f" ± {payload['percolation']['binomial_slack']:.4f}",
        ],
        [
            "diurnal trace",
            f"p99={payload['diurnal_trace']['latency_p99']:.2f}",
            f"queue p99={payload['diurnal_trace']['queue_delay_p99']:.2f}",
        ],
    ]
    print()
    print(format_table(["scenario", "observed", "bound / detail"], rows))
    print(f"\nrecorded -> {ARTIFACT.name}")

    # The artefact is the contract: it must exist and round-trip as JSON.
    recorded = json.loads(ARTIFACT.read_text())
    assert recorded["schema_version"] == ARTIFACT_SCHEMA_VERSION
    assert recorded["metadata"]["generator"].endswith("test_bench_scenarios.py")
    assert recorded["adversarial"]["greedy-load"]["fabricated_reads"] == 0
    assert recorded["adversarial"]["stale-read"]["stale_reads"] == 0
    assert all(
        check["ok"]
        for section in ("greedy-load", "stale-read")
        for check in recorded["adversarial"][section]["checks"]
    )
