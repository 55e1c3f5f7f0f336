"""Replica start-up: what a cold replica imports, and what a failed start leaves.

* The service path — ``import repro`` and the modules ``python -m repro
  serve`` loads — must not import scipy.  scipy is the measure layer's
  (the load LP, the transversal MILP and the exact binomial tails) and
  costs about a second of CPU per replica.  The check runs in a fresh
  interpreter and asserts absence rather than a module count, which moves
  between Python versions.
* :meth:`ServiceCluster.start` and :meth:`ServiceCluster.restart` spawn
  replicas in their own sessions; when a start fails, whatever was
  spawned is stopped before the error propagates, and the ``serve``
  supervisor stops its cluster however it ends.  ``Popen`` is faked.
"""

from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import cli
from repro.api.registry import SystemSpec
from repro.exceptions import ServiceError
from repro.service import harness
from repro.service.harness import ClusterSpec

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "statement",
    [
        "import repro",
        "import repro.api.cli, repro.service.replica",
        "import repro.api.cli, repro.service.harness, repro.service.replica",
    ],
)
def test_the_service_path_does_not_import_scipy(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    script = (
        f"import sys\n{statement}\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]", f"{statement!r} loads {completed.stdout.strip()}"


class FakeReplica:
    """A spawned replica that stays up until it is terminated or killed."""

    def __init__(self, exit_code: int | None = None):
        self.returncode = exit_code
        self.stopped_by: str | None = None

    def poll(self):
        return self.returncode

    def terminate(self):
        self.stopped_by = "terminate"
        self.returncode = -15

    def kill(self):
        self.stopped_by = "kill"
        self.returncode = -9

    def wait(self, timeout=None):
        return self.returncode


def fake_popen(monkeypatch, *, failing: int | None, ready: bool = True) -> list[FakeReplica]:
    """Replace ``Popen``; replica ``failing`` exits with code 1 at once."""
    spawned: list[FakeReplica] = []

    def popen(command, **_):
        index = int(command[command.index("--index") + 1])
        if index == failing:
            process = FakeReplica(exit_code=1)
        else:
            process = FakeReplica()
            if ready:
                ready_file = command[command.index("--ready-file") + 1]
                Path(ready_file).write_text(
                    json.dumps({"host": "127.0.0.1", "port": 9000 + index}), encoding="utf-8"
                )
        spawned.append(process)
        return process

    monkeypatch.setattr(harness.subprocess, "Popen", popen)
    return spawned


def threshold_cluster(tmp_path) -> harness.ServiceCluster:
    return harness.ServiceCluster(
        ClusterSpec(SystemSpec("threshold", {"b": 1, "n": 5})), tmp_path / "run"
    )


def test_start_terminates_every_replica_when_one_exits_early(monkeypatch, tmp_path):
    spawned = fake_popen(monkeypatch, failing=2)
    cluster = threshold_cluster(tmp_path)
    with pytest.raises(ServiceError, match="replica 2 exited with code 1"):
        cluster.start(timeout=5.0)
    assert len(spawned) == 5
    assert [process.stopped_by for process in spawned] == [
        "terminate", "terminate", None, "terminate", "terminate"
    ]
    assert not any(handle.alive for handle in cluster.replicas)


def test_start_terminates_every_replica_when_the_deadline_passes(monkeypatch, tmp_path):
    spawned = fake_popen(monkeypatch, failing=None, ready=False)
    cluster = threshold_cluster(tmp_path)
    with pytest.raises(ServiceError, match="did not become ready"):
        cluster.start(timeout=0.05)
    assert [process.stopped_by for process in spawned] == ["terminate"] * 5


def test_start_terminates_the_spawned_replicas_when_a_spawn_fails(monkeypatch, tmp_path):
    spawned = fake_popen(monkeypatch, failing=None)
    popen = harness.subprocess.Popen

    def popen_until_the_third(command, **kwargs):
        if len(spawned) == 2:
            raise OSError("no more processes")
        return popen(command, **kwargs)

    monkeypatch.setattr(harness.subprocess, "Popen", popen_until_the_third)
    cluster = threshold_cluster(tmp_path)
    with pytest.raises(OSError, match="no more processes"):
        cluster.start(timeout=5.0)
    assert [process.stopped_by for process in spawned] == ["terminate"] * 2


def test_restart_kills_a_replica_that_never_becomes_ready(monkeypatch, tmp_path):
    fake_popen(monkeypatch, failing=None)
    cluster = threshold_cluster(tmp_path)
    cluster.start(timeout=5.0)
    cluster.kill(1)
    spawned = fake_popen(monkeypatch, failing=None, ready=False)
    with pytest.raises(ServiceError, match="replica 1 did not become ready"):
        cluster.restart(1, timeout=0.05)
    assert [process.stopped_by for process in spawned] == ["kill"]
    assert not cluster.replicas[1].alive
    cluster.terminate()


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_the_supervisor_terminates_its_cluster_when_stdout_is_closed(monkeypatch, tmp_path):
    spawned = fake_popen(monkeypatch, failing=None)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    argv = ["serve", "-c", "threshold", "--n", "5", "--b", "1", "--run-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert [process.stopped_by for process in spawned] == ["terminate"] * 5
