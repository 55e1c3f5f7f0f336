"""The recorded ``BENCH_*.json`` artefacts: their generators and their shared schema.

Each artefact at the repository root is a machine-readable regeneration of
one result family, diffed instead of re-read from log output:

* ``BENCH_scenarios.json`` — an adaptive greedy-load and a stale-read
  adversary on the Figure 1 M-Grid (5×5, ``b = 1``) with their conformance
  margins, a site-percolation availability cross-check against the
  closed-form ``Fp``, and a diurnal open-loop trace replay (sojourn-time
  percentiles and the queueing component);
* ``BENCH_membership.json`` — epoch re-optimisation on a growth epoch
  (5×5 → 6×6, every old quorum survives, so ``reweight`` is a pure
  renormalisation) and a churn epoch (5×5 → 4×4 after severing the outer
  ring, no quorum survives, so a requested ``reweight`` falls back to the
  LP ``resolve``), plus a three-epoch churn run with per-epoch conformance;
* ``BENCH_storage.json`` — the write-ahead log's fsync count per policy over
  a fixed record mix, and recovery (open + scan + fold) as the log grows.

Artefacts carry results only: no timing, no environment stamp.  Every value
is a pure function of the code and the fixed seed, so regenerating an
artefact on an unchanged tree rewrites nothing, and a ``git diff`` of one
means a recorded result moved.  Timing belongs to ``bench/``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import MGrid
from repro.analysis import (
    adversarial_conformance,
    percolation_conformance,
    reconfig_conformance,
)
from repro.core import Membership, plan_events
from repro.simulation import (
    AdaptiveScenario,
    GreedyLoadAdversary,
    MembershipTimeline,
    StaleReadAdversary,
    TraceScenario,
    reoptimise_strategy,
    run_event_workload,
    run_workload,
)
from repro.simulation.engine import resolve_strategy
from repro.simulation.messages import Timestamp, ValueTimestampPair
from repro.storage import DurableStore, WriteAheadLog, scan_wal

ROOT = Path(__file__).resolve().parents[1]

#: Bump when the shared header shape changes.
ARTIFACT_SCHEMA_VERSION = 3

#: Every artefact at the repository root, with the test that generates it.
EXPECTED_ARTIFACTS = {
    "BENCH_scenarios.json": "tests/test_artifacts.py::test_scenario_suite_conformance_artifact",
    "BENCH_membership.json": "tests/test_artifacts.py::test_membership_reoptimisation_artifact",
    "BENCH_storage.json": "tests/test_artifacts.py::test_storage_artifact",
}

SEED = 20240614
GRID_SIDE = 5
MASKING_B = 1


def header(name: str) -> dict:
    """The shared artefact header: schema version and generator."""
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "metadata": {"generator": EXPECTED_ARTIFACTS[name]},
    }


def write_artifact(name: str, payload: dict) -> dict:
    """Record ``payload`` as ``name`` at the repository root, only if it differs.

    Returns the recorded artefact read back from disk, so the caller's
    assertions run against what a reader of the file sees.
    """
    path = ROOT / name
    text = json.dumps(payload, indent=2) + "\n"
    try:
        unchanged = path.read_text(encoding="utf-8") == text
    except OSError:
        unchanged = False
    if not unchanged:
        path.write_text(text, encoding="utf-8")
    return json.loads(path.read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# BENCH_scenarios.json
# --------------------------------------------------------------------------


def _adversarial_payload() -> dict:
    payloads = {}
    for label, policy in (
        ("greedy-load", GreedyLoadAdversary()),
        ("stale-read", StaleReadAdversary()),
    ):
        result, report = adversarial_conformance(
            MGrid(GRID_SIDE, MASKING_B),
            b=MASKING_B,
            scenario=AdaptiveScenario("adaptive", policy=policy, rounds=8),
            num_operations=800,
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
    result = run_event_workload(
        MGrid(GRID_SIDE, MASKING_B),
        b=MASKING_B,
        scenario=trace,
        num_clients=8,
        operations_per_client=50,
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
    recorded = write_artifact(
        "BENCH_scenarios.json",
        {
            **header("BENCH_scenarios.json"),
            "system": f"mgrid(side={GRID_SIDE}, b={MASKING_B})",
            "seed": SEED,
            "adversarial": _adversarial_payload(),
            "percolation": _percolation_payload(),
            "diurnal_trace": _trace_payload(),
        },
    )
    assert recorded["adversarial"]["greedy-load"]["fabricated_reads"] == 0
    assert recorded["adversarial"]["stale-read"]["stale_reads"] == 0
    assert all(
        check["ok"]
        for section in ("greedy-load", "stale-read")
        for check in recorded["adversarial"][section]["checks"]
    )


# --------------------------------------------------------------------------
# BENCH_membership.json
# --------------------------------------------------------------------------


def _reoptimise(system, steps, policy: str) -> dict:
    """One re-optimisation of epoch 0 -> 1 under ``policy``, on a fresh membership.

    A fresh :class:`Membership` (hence a fresh rebound system) makes a
    ``resolve`` really run the LP instead of hitting the per-object cache.
    """
    previous = resolve_strategy(system, "optimal")
    membership = Membership(system.universe, plan_events(system.universe, steps))
    rebound = membership.rebind(system, 1)
    strategy, applied = reoptimise_strategy(
        system, membership, 1, previous=previous, policy=policy
    )
    return {
        "policy_requested": policy,
        "policy_applied": applied,
        "support_size": len(strategy.support),
        "epoch_n": rebound.n,
    }


def _transition_payload(label: str, steps) -> dict:
    system = MGrid(GRID_SIDE, MASKING_B)
    membership = Membership(system.universe, plan_events(system.universe, steps))
    return {
        "transition": label,
        "from_n": system.n,
        "to_n": membership.epoch(1).n,
        "reweight": _reoptimise(system, steps, "reweight"),
        "resolve": _reoptimise(system, steps, "resolve"),
    }


def _reconfig_churn_payload() -> dict:
    system = MGrid(GRID_SIDE, MASKING_B)
    ring = GRID_SIDE * GRID_SIDE - (GRID_SIDE - 1) ** 2
    membership = Membership(
        system.universe,
        plan_events(system.universe, [("sever", ring), ("join", ring)]),
    )
    timeline = MembershipTimeline(membership=membership, policy="reweight")
    result = run_workload(
        system,
        scenario=timeline,
        num_operations=300,
        rng=np.random.default_rng(SEED),
    )
    report = reconfig_conformance(result, system, membership)
    report.require()
    return {
        "num_epochs": result.num_epochs,
        "operations": result.whole.operations,
        "availability": result.whole.availability,
        "consistency_violations": result.whole.consistency_violations,
        "epochs": [outcome.to_dict() for outcome in result.outcomes],
        "checks": report.to_dict()["checks"],
    }


def test_membership_reoptimisation_artifact():
    """Both re-optimisation paths on both transitions, plus a churn run."""
    side_up = (GRID_SIDE + 1) ** 2 - GRID_SIDE**2
    ring = GRID_SIDE * GRID_SIDE - (GRID_SIDE - 1) ** 2
    recorded = write_artifact(
        "BENCH_membership.json",
        {
            **header("BENCH_membership.json"),
            "system": f"mgrid(side={GRID_SIDE}, b={MASKING_B})",
            "seed": SEED,
            "transitions": [
                _transition_payload("growth", [("join", side_up)]),
                _transition_payload("churn", [("sever", ring)]),
            ],
            "reconfig_churn": _reconfig_churn_payload(),
        },
    )
    growth, churn = recorded["transitions"]
    # Growth keeps every quorum: the re-weight really is incremental.
    assert growth["reweight"]["policy_applied"] == "reweight"
    assert growth["resolve"]["policy_applied"] == "resolve"
    # Churn strands every quorum: the re-weight transparently re-solves.
    assert churn["reweight"]["policy_applied"] == "resolve"
    assert recorded["reconfig_churn"]["consistency_violations"] == 0
    assert all(check["ok"] for check in recorded["reconfig_churn"]["checks"])


# --------------------------------------------------------------------------
# BENCH_storage.json
# --------------------------------------------------------------------------

APPENDS = 512
FSYNC_POLICIES = ("always", "interval:32", "never")
RECOVERY_LENGTHS = (256, 1024, 4096)


def _value(counter: int) -> object:
    """A representative journalled value: small structured JSON."""
    return {"op": counter, "payload": ["x" * 32, counter % 7]}


def _append_under(tmp_path: Path, policy: str) -> dict:
    """APPENDS journal appends under one fsync policy, with the fsyncs they cost."""
    path = tmp_path / f"wal-{policy.replace(':', '-')}.log"
    with WriteAheadLog(path, fsync=policy) as wal:
        for counter in range(1, APPENDS + 1):
            wal.append(Timestamp(counter, 0), _value(counter))
        sync_count = wal.sync_count
    return {"policy": policy, "appends": APPENDS, "sync_count": sync_count}


def _recover(tmp_path: Path, length: int) -> dict:
    """Recovery (open + scan + fold) of a WAL of ``length`` records.

    Compaction is disabled so the log really holds ``length`` records.
    """
    data_dir = tmp_path / f"recover-{length}"
    with DurableStore(data_dir, fsync="never", snapshot_every=0) as store:
        for counter in range(1, length + 1):
            store.journal(
                ValueTimestampPair(value=_value(counter), timestamp=Timestamp(counter, 0))
            )
    with DurableStore(data_dir, fsync="never", snapshot_every=0) as store:
        assert store.pair.timestamp == Timestamp(length, 0)
        recovered = store.recovery.wal_records
    return {
        "wal_records": length,
        "recovered_records": recovered,
        "wal_bytes": scan_wal(data_dir / "wal.log").valid_bytes,
    }


def test_storage_artifact(tmp_path):
    """The fsync bill per policy and the recovery bill per log length."""
    recorded = write_artifact(
        "BENCH_storage.json",
        {
            **header("BENCH_storage.json"),
            "system": "repro.storage (write-ahead log + snapshot store)",
            "seed": SEED,
            "fsync_throughput": [_append_under(tmp_path, policy) for policy in FSYNC_POLICIES],
            "recovery": [_recover(tmp_path, length) for length in RECOVERY_LENGTHS],
        },
    )
    by_policy = {row["policy"]: row["sync_count"] for row in recorded["fsync_throughput"]}
    # "always" pays the opening magic plus one fsync per append; "interval:32"
    # the magic plus one per 32 appends; "never" only the magic.
    assert by_policy == {"always": APPENDS + 1, "interval:32": APPENDS // 32 + 1, "never": 1}
    # Recovery replays every surviving record, and the log it reads grows
    # with its length.
    for row in recorded["recovery"]:
        assert row["recovered_records"] == row["wal_records"]
    wal_bytes = [row["wal_bytes"] for row in recorded["recovery"]]
    assert wal_bytes == sorted(set(wal_bytes))


# --------------------------------------------------------------------------
# The shared schema
# --------------------------------------------------------------------------


def _artifacts() -> list[Path]:
    return sorted(ROOT.glob("BENCH_*.json"))


def test_expected_artifacts_exist():
    names = {path.name for path in _artifacts()}
    missing = set(EXPECTED_ARTIFACTS) - names
    assert not missing, f"artefacts missing from the repo root: {missing}"


@pytest.mark.parametrize("name", sorted(EXPECTED_ARTIFACTS))
def test_artifact_header_schema(name):
    """Every artefact shares the same header: version, generator, seed, system."""
    payload = json.loads((ROOT / name).read_text(encoding="utf-8"))

    assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION, (
        f"{name} is on schema {payload.get('schema_version')!r}; regenerate it "
        f"(run {EXPECTED_ARTIFACTS[name]}) to move it to {ARTIFACT_SCHEMA_VERSION}"
    )
    assert payload["metadata"] == {"generator": EXPECTED_ARTIFACTS[name]}
    assert isinstance(payload["seed"], int)
    assert "system" in payload


def test_no_unregistered_artifacts():
    """A new BENCH_*.json must register here to inherit the schema check."""
    unregistered = {
        path.name for path in _artifacts() if path.name not in EXPECTED_ARTIFACTS
    }
    assert not unregistered, (
        f"unregistered artefacts {unregistered}: add them to EXPECTED_ARTIFACTS "
        "in tests/test_artifacts.py"
    )
