"""The benchmark's own contract: file shapes, and a tiny pass of every workload.

Collected by the tier-1 suite.  The smoke pass runs each workload with tiny
blocks and the tracer on, so every correctness gate, every layer probe and
the span analysis execute; it measures nothing.  Service workloads skip on
runners that forbid loopback listeners or subprocess spawning.
"""

from __future__ import annotations

import json
import re
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DETAILS = json.loads((BENCH / "details.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
#: Layer counts that are zero on a healthy (or tiny) run.
ZERO_WHEN_HEALTHY = {"service.timeouts", "service.retries_per_op", "storage.compactions"}


def _loopback_available() -> bool:
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
        return True
    except OSError:
        return False


def test_benchmark_json_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"] and CONTRACT["command"] == ["python3", "bench/run.py"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = (
        WORKLOADS
        + [m["name"] for m in CONTRACT["end_to_end"]]
        + [m["name"] for m in CONTRACT["per_layer"]]
    )
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_every_layer_metric_predicts_an_end_to_end_metric():
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(DETAILS["per_layer"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert set(DETAILS["workloads"]) == set(WORKLOADS)
    for name, entry in DETAILS["per_layer"].items():
        assert entry["moves"] in end_to_end | {"none"}, name
        assert set(entry["on"]) <= set(WORKLOADS), name
        assert bool(entry["on"]) == (entry["moves"] != "none"), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass(workload, tmp_path):
    if workload.startswith("svc_") and not _loopback_available():
        pytest.skip("loopback sockets unavailable on this runner")
    detail = tmp_path / "run.json"
    completed = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", "1", "--smoke", "--out", str(detail),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if completed.returncode != 0 and "ServiceError" in completed.stderr:
        pytest.skip(f"cannot spawn replica processes: {completed.stderr.splitlines()[-1]}")
    assert completed.returncode == 0, completed.stdout + completed.stderr

    summary = json.loads(completed.stdout.rstrip().rsplit("\n", 1)[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["attempted"] >= 1 and summary["failed"] == 0
    assert list(summary["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]

    result = json.loads(detail.read_text(encoding="utf-8"))
    assert result["gates"] and all(gate["ok"] for gate in result["gates"])
    assert list(result["end_to_end"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["end_to_end"].values())
    # A layer is measured exactly where the prediction table says it is used.
    for name, entry in DETAILS["per_layer"].items():
        if workload in entry["on"] and name not in ZERO_WHEN_HEALTHY:
            assert result["per_layer"][name]["value"] > 0, name
    # Within 10 % at full size; a 200-operation block's median is looser.
    assert 0.8 <= result["per_layer"]["trace_coverage_frac"]["value"] <= 1.25
    spans = (BENCH / "out" / f"trace-{workload}.jsonl").read_text(encoding="utf-8").splitlines()
    assert set(json.loads(spans[0])) == {
        "id", "name", "layer", "start", "end", "parent", "op", "count",
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", "sim_events", "--seed", "1",
            "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout


def _result(value: float, q1: float, q3: float, *, noisy: bool = False) -> dict:
    entry = {"value": value, "q1": q1, "q3": q3, "unit": "x", "n": 4}
    return {
        "seed": 1,
        "workloads": {
            name: {
                "correct": True,
                "env": {"noisy": noisy},
                "end_to_end": {m["name"]: dict(entry) for m in CONTRACT["end_to_end"]},
                "per_layer": {},
            }
            for name in WORKLOADS
        },
    }


@pytest.mark.parametrize(
    ("after", "status", "word"),
    [
        (_result(100.0, 99.0, 101.0), 0, "ok"),
        (_result(200.0, 199.0, 201.0), 1, "regressed"),
        (_result(200.0, 90.0, 310.0), 0, "unresolved"),
        (_result(200.0, 199.0, 201.0, noisy=True), 0, "noisy"),
    ],
)
def test_compare_verdicts(after, status, word, tmp_path, capsys):
    import compare

    (tmp_path / "a.json").write_text(json.dumps(_result(100.0, 99.0, 101.0)), encoding="utf-8")
    (tmp_path / "b.json").write_text(json.dumps(after), encoding="utf-8")
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == status
    assert word in capsys.readouterr().out
