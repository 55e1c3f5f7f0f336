"""Pins of the ``python -m repro`` command line.

Held fixed here:

* every subcommand's option strings, as the parser declares them;
* for a corpus of argv — every CLI command line of the CI workflow, plus the
  argv a supervisor spawns for a durable Byzantine replica — the spec that
  argv builds, compared with a spec written out by hand;
* spec -> argv -> spec round trips, and the argv the supervisor spawns each
  replica with;
* the exit status and output of the error paths, a closed stdout included.

The specs are captured in-process: each command's effect (``run``,
``measure``, replica start-up, cluster spawn, load generation) is replaced
by a stub that raises :class:`Captured` carrying what it was handed.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import sys
from pathlib import Path

import pytest

from repro.api import cli
from repro.api.measures import Budget
from repro.api.membership import MembershipSpec
from repro.api.registry import SystemSpec
from repro.api.workloads import WorkloadSpec
from repro.service import harness, replica
from repro.service.harness import ClusterSpec
from repro.service.replica import ReplicaConfig
from repro.simulation.client import RetryPolicy

THRESHOLD_5 = SystemSpec("threshold", {"b": 1, "n": 5})

_PARAMS = ["--b", "--depth", "--k", "--l", "--n", "--q", "--rows", "--side"]

#: Every subcommand's option strings (sorted), as the parser declares them.
OPTION_STRINGS = {
    "compare": sorted(
        ["-h", "--help", "--json", "--method", "--num-samples", "--p", "--seed", "--trials"]
        + _PARAMS
    ),
    "lint": [],
    "list": ["--help", "--json", "-h"],
    "loadgen": sorted(
        [
            "-h", "--help", "--clients", "--cluster", "--conformance", "--history",
            "--initial-from-cluster", "--json", "--max-attempts", "--mode", "--ops",
            "--output", "--protocol-b", "--rate", "--seed", "--strategy", "--timeout",
            "--write-fraction",
        ]
    ),
    "measure": sorted(
        ["-h", "--help", "--json", "--measure", "--method", "--num-samples", "--p",
         "--seed", "--trials"]
        + _PARAMS
    ),
    "run": sorted(
        [
            "-h", "--help", "-c", "--construction", "--clients", "--engine", "--json",
            "--max-attempts", "--membership", "--num-samples", "--ops", "--protocol-b",
            "--scenario", "--seed", "--strategy", "--trace", "--write-fraction",
        ]
        + _PARAMS
    ),
    "serve": sorted(
        [
            "-h", "--help", "-c", "--allow-overload", "--byzantine",
            "--byzantine-behaviour", "--cluster-file", "--construction", "--data-dir",
            "--fsync", "--host", "--index", "--port", "--protocol-b", "--ready-file",
            "--ready-timeout", "--run-dir", "--seed", "--snapshot-every", "--spec",
        ]
        + _PARAMS
    ),
    "table": ["--help", "--include-baselines", "--json", "--n", "--p", "--seed", "-h"],
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    action = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return dict(action.choices)


def test_the_subcommands_are_pinned():
    assert set(subparsers()) == set(OPTION_STRINGS)


@pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
def test_option_strings_are_pinned(command):
    parser = subparsers()[command]
    declared = sorted(
        option for action in parser._actions for option in action.option_strings
    )
    assert declared == sorted(OPTION_STRINGS[command])


# ----------------------------------------------------------------------
# argv -> spec.
# ----------------------------------------------------------------------
class Captured(Exception):
    """Raised by a stubbed command effect, carrying what it was handed."""

    def __init__(self, value: object):
        super().__init__(value)
        self.value = value


def _raise(value: object) -> None:
    raise Captured(value)


@pytest.fixture
def captured(monkeypatch, tmp_path):
    """``argv -> what the command would have acted on``, effects stubbed out."""
    monkeypatch.setattr(cli, "run", lambda spec, **_: _raise(spec))
    monkeypatch.setattr(cli, "measure", lambda *_, budget, **__: _raise(budget))
    monkeypatch.setattr(replica, "run_replica", _raise)
    monkeypatch.setattr(harness, "ServiceCluster", lambda spec, run_dir: _raise(spec))

    async def load(system, endpoints, **keywords):
        raise Captured(keywords)

    monkeypatch.setattr(harness, "run_load", load)
    cluster_file = tmp_path / "cluster.json"
    cluster_file.write_text(
        json.dumps(
            {
                "spec": THRESHOLD_5.to_dict(),
                "b": 1,
                "replicas": [
                    {"index": index, "host": "127.0.0.1", "port": 9000 + index}
                    for index in range(5)
                ],
            }
        ),
        encoding="utf-8",
    )

    def capture(argv: list[str]) -> object:
        argv = [str(cluster_file) if arg == "CLUSTER" else arg for arg in argv]
        with pytest.raises(Captured) as caught:
            cli.main(argv)
        return caught.value.value

    return capture


MEMBERSHIP = '{"events": [{"kind": "sever", "count": 9}, {"kind": "join", "count": 9}], "policy": "resolve"}'

#: The replica argv a supervisor spawns for replica 4 of a durable cluster
#: with one forge-on-read liar (seed 3, so the replica's seed is 3 + 4).
REPLICA_ARGV = [
    "serve",
    "--spec", json.dumps(THRESHOLD_5.to_dict()),
    "--index", "4",
    "--host", "127.0.0.1",
    "--port", "0",
    "--ready-file", "run/replica-4.ready",
    "--seed", "7",
    "--data-dir", "data/replica-4",
    "--fsync", "interval:8",
    "--snapshot-every", "32",
    "--byzantine-behaviour", "forge-on-read",
]

REPLICA_CONFIG = ReplicaConfig(
    spec=THRESHOLD_5,
    index=4,
    byzantine_behaviour="forge-on-read",
    seed=7,
    ready_file="run/replica-4.ready",
    data_dir="data/replica-4",
    fsync="interval:8",
    snapshot_every=32,
)


def _mgrid(scenario: str, operations: int = 200, **fields: object) -> WorkloadSpec:
    return WorkloadSpec(
        system="mgrid", params={"side": 5, "b": 1}, scenario=scenario,
        operations=operations, **fields,
    )


CORPUS = [
    # CLI smoke.
    ("measure grid --n 25 --json", Budget()),
    ("measure threshold --n 9 --json", Budget()),
    (
        "run --scenario crash --construction mgrid --n 4096 --json",
        WorkloadSpec(system="mgrid", params={"n": 4096}, scenario="crash"),
    ),
    ("compare grid mgrid rt --n 49 --depth 3 --p 0.1 --json", Budget()),
    ("measure boostfpp --q 3 --b 1 --method exact --json", Budget()),
    ("measure wheel --n 13 --method exact --json", Budget()),
    (
        "measure mpath --n 49 --b 1 --measure fp --method sampled --p 0.3 "
        "--trials 400 --seed 7 --json",
        Budget(trials=400, seed=7),
    ),
    *[
        (
            "run -c mgrid --n 49 --b 3 --engine event --clients 8 --ops 640 --seed 7 "
            f"--json --scenario {scenario}",
            WorkloadSpec(
                system="mgrid", params={"n": 49, "b": 3}, scenario=scenario,
                clients=8, operations=640, seed=7,
            ),
        )
        for scenario in ("slow-servers", "flaky-links")
    ],
    # Adversarial & conformance smoke.
    ("run -c mgrid --side 5 --b 1 --scenario adaptive-load --ops 200 --json",
     _mgrid("adaptive-load")),
    ("run -c mgrid --side 5 --b 1 --scenario adaptive-stale --ops 200 --json",
     _mgrid("adaptive-stale")),
    ("run -c mgrid --side 5 --b 1 --scenario percolation --ops 200 --json",
     _mgrid("percolation")),
    ("run -c mgrid --side 5 --b 1 --scenario blast-radius --ops 200 --json",
     _mgrid("blast-radius")),
    ("run -c mgrid --side 5 --b 1 --scenario diurnal --ops 120 --json",
     _mgrid("diurnal", operations=120)),
    # Membership reconfiguration smoke.
    ("run -c mgrid --side 5 --b 1 --scenario reconfig-churn --ops 200 --json",
     _mgrid("reconfig-churn")),
    ("run -c mgrid --side 5 --b 1 --scenario reconfig-growth --ops 200 --engine event --json",
     _mgrid("reconfig-growth")),
    (
        ["run", "-c", "mgrid", "--side", "5", "--b", "1", "--ops", "200", "--json",
         "--membership", MEMBERSHIP],
        _mgrid(None, membership=MembershipSpec.from_dict(json.loads(MEMBERSHIP))),
    ),
    # Packaging smoke.
    (
        "run --construction mgrid --side 7 --b 3 --scenario iid-crash --ops 200 --json",
        WorkloadSpec(
            system="mgrid", params={"side": 7, "b": 3}, scenario="iid-crash", operations=200
        ),
    ),
    # Service smoke.
    (
        "serve -c threshold --n 5 --b 1 --byzantine 1 --cluster-file cluster.json "
        "--run-dir cluster-run",
        ClusterSpec(spec=THRESHOLD_5, byzantine=1),
    ),
    (
        "loadgen --cluster CLUSTER --ops 1000 --clients 32 --conformance "
        "--history live-history.jsonl --json",
        {
            "b": 1, "operations": 1000, "clients": 32, "write_fraction": 0.5,
            "mode": "closed", "rate": 0.0,
            "policy": RetryPolicy(max_attempts=10, request_timeout=2.0),
            "strategy": None, "seed": 0, "initial_pair": None,
        },
    ),
    # Durability smoke.
    (
        "serve -c threshold --n 5 --b 1 --data-dir state --fsync always "
        "--snapshot-every 32 --cluster-file cluster.json --run-dir cluster-run",
        ClusterSpec(spec=THRESHOLD_5, data_root="state", fsync="always", snapshot_every=32),
    ),
    (
        "loadgen --cluster CLUSTER --ops 400 --clients 16 --conformance --json",
        {
            "b": 1, "operations": 400, "clients": 16, "write_fraction": 0.5,
            "mode": "closed", "rate": 0.0,
            "policy": RetryPolicy(max_attempts=10, request_timeout=2.0),
            "strategy": None, "seed": 0, "initial_pair": None,
        },
    ),
    # The replica a supervisor spawns.
    (REPLICA_ARGV, REPLICA_CONFIG),
]


@pytest.mark.parametrize(
    ("argv", "expected"),
    CORPUS,
    ids=[" ".join(argv[:2]) if isinstance(argv, list) else argv for argv, _ in CORPUS],
)
def test_argv_builds_the_expected_spec(captured, argv, expected):
    built = captured(argv.split() if isinstance(argv, str) else argv)
    if isinstance(expected, dict):
        built = {key: built[key] for key in expected}
    assert built == expected


# ----------------------------------------------------------------------
# Spec -> argv -> spec.
# ----------------------------------------------------------------------
def parse(argv: list[str]) -> argparse.Namespace:
    return cli._build_parser().parse_args(argv)


def test_a_replica_config_round_trips_through_its_argv():
    config = ReplicaConfig(
        spec=THRESHOLD_5,
        index=2,
        host="10.0.0.7",
        port=7001,
        byzantine_behaviour="stale",
        seed=11,
        ready_file="ready/replica-2.json",
        data_dir="state/replica-2",
        fsync="interval:8",
        snapshot_every=16,
    )
    assert cli.spec_from_args(ReplicaConfig, parse(["serve", *cli.argv_of(config)])) == config


def test_a_cluster_spec_round_trips_through_its_argv():
    cluster = ClusterSpec(
        spec=THRESHOLD_5,
        b=1,
        byzantine=2,
        byzantine_behaviour="random-value",
        host="10.0.0.7",
        seed=5,
        allow_overload=True,
        data_root="state",
        fsync="never",
        snapshot_every=0,
    )
    assert cli.spec_from_args(ClusterSpec, parse(["serve", *cli.argv_of(cluster)])) == cluster


def test_a_workload_spec_round_trips_through_its_argv():
    spec = WorkloadSpec(
        system="mgrid", params={"side": 5, "b": 1}, b=1, scenario="crash", operations=64,
        clients=2, write_fraction=0.25, strategy="optimal", seed=3, max_attempts=4,
        num_samples=32,
    )
    args = parse(["run", "-c", "mgrid", "--side", "5", "--b", "1", *cli.argv_of(spec)])
    assert cli.spec_from_args(WorkloadSpec, args, system="mgrid", params=spec.params) == spec


def test_absent_flags_take_the_dataclass_defaults():
    args = parse(["serve", "--spec", json.dumps(THRESHOLD_5.to_dict()), "--index", "0"])
    assert cli.spec_from_args(ReplicaConfig, args) == ReplicaConfig(THRESHOLD_5, 0)
    assert cli.spec_from_args(ClusterSpec, args) == ClusterSpec(THRESHOLD_5)
    assert cli.argv_of(ClusterSpec(THRESHOLD_5)) == ["--spec", json.dumps(THRESHOLD_5.to_dict())]


class FakeProcess:
    pid = 4242

    def poll(self):
        return None

    def terminate(self):
        pass

    def kill(self):
        pass

    def wait(self, timeout=None):
        return 0


def test_the_supervisor_spawns_each_replica_from_its_config(monkeypatch, tmp_path):
    spawned: list[list[str]] = []

    def popen(command, **_):
        spawned.append(command)
        ready_file = command[command.index("--ready-file") + 1]
        with open(ready_file, "w", encoding="utf-8") as handle:
            json.dump({"host": "127.0.0.1", "port": 9000 + len(spawned)}, handle)
        return FakeProcess()

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness.subprocess, "Popen", popen)
    cluster = harness.ServiceCluster(
        ClusterSpec(
            THRESHOLD_5, byzantine=1, seed=3, data_root="data", fsync="interval:8",
            snapshot_every=32,
        ),
        "run",
    )
    cluster.start(timeout=5.0)
    cluster.terminate()
    assert len(spawned) == 5
    assert all(command[1:4] == ["-m", "repro", "serve"] for command in spawned)
    configs = [
        cli.spec_from_args(ReplicaConfig, parse(command[3:])) for command in spawned
    ]
    assert configs[4] == REPLICA_CONFIG
    assert [config.seed for config in configs] == [3, 4, 5, 6, 7]
    assert [config.byzantine_behaviour for config in configs] == [None] * 4 + ["forge-on-read"]
    assert [config.data_dir for config in configs] == [f"data/replica-{i}" for i in range(5)]


# ----------------------------------------------------------------------
# Exit statuses.
# ----------------------------------------------------------------------
@pytest.fixture
def no_effects(monkeypatch):
    """Fail loudly if a command gets as far as serving or spawning."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("the command ran instead of refusing its arguments")

    monkeypatch.setattr(replica, "run_replica", refuse)
    monkeypatch.setattr(harness.subprocess, "Popen", refuse)


@pytest.mark.parametrize(
    ("argv", "status", "message"),
    [
        (
            "serve -c threshold --n 5 --b 1 --index 0 --byzantine-behaviour bogus",
            2,
            "unknown Byzantine behaviour 'bogus'",
        ),
        (
            "serve -c threshold --n 5 --b 1 --byzantine 3 --run-dir RUN",
            2,
            "exceed the masking parameter b=1",
        ),
        (
            "serve -c threshold --n 5 --b 1 --index 0 --data-dir RUN --fsync bogus",
            2,
            "unknown fsync mode 'bogus'",
        ),
        ("run -c mgrid --side 5 --b 1 --trace TRACE", 2, "numeric 't'"),
        ("run -c mgrid --side 5 --b 1 --clients 0", 2, "clients must be >= 1"),
        ("measure mgrid --n 24", 2, "perfect square"),
        ("measure mpath --side 5 --b 1 --method exact", 3, "error: "),
        (
            "run -c mgrid --side 5 --b 1 --scenario reconfig-churn --ops 2 --engine event",
            3,
            "at least one operation per epoch",
        ),
        ("loadgen --cluster NO_HOST", 3, "a string host"),
        ("loadgen --cluster INDEX_9", 3, "integer index below 5"),
    ],
)
def test_exit_status(no_effects, tmp_path, capsys, argv, status, message):
    trace = tmp_path / "trace.json"
    trace.write_text('[{"t": "soon", "op": "read"}]', encoding="utf-8")
    files = {"RUN": str(tmp_path / "run"), "TRACE": str(trace)}
    for name, replica in [
        ("NO_HOST", {"index": 0, "port": 9}),
        ("INDEX_9", {"index": 9, "host": "127.0.0.1", "port": 9}),
    ]:
        cluster = {"spec": THRESHOLD_5.to_dict(), "b": 1, "replicas": [replica]}
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(cluster), encoding="utf-8")
    argv = [files.get(arg, arg) for arg in argv.split()]
    assert cli.main(argv) == status
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_a_closed_stdout_exits_1_without_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["run", "-c", "mgrid", "--side", "5", "--b", "1", "--ops", "10", "--json"]) == 1
    assert capsys.readouterr().err == ""
