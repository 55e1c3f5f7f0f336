"""``python -m repro`` — the facade from the shell.

Four commands drive the facade so paper tables, measure trajectories and
workload runs are reproducible without writing Python:

* ``python -m repro list`` — the construction registry, the measures and
  the scenario catalogue;
* ``python -m repro measure mgrid --n 49 --b 3 [--measure fp --p 0.1]`` —
  one measure through the dispatch policy (:mod:`repro.api.measures`);
* ``python -m repro run --construction mgrid --n 4096 --scenario crash`` —
  one workload experiment through the unified runner
  (:mod:`repro.api.workloads`);
* ``python -m repro table`` / ``python -m repro compare grid mgrid rt ...``
  — the Section 8 comparison and ad-hoc multi-construction comparisons;
* ``python -m repro lint [--json]`` — the AST invariant linter and strict
  typing gate (:mod:`repro.lint`), machine-checking the code-level
  contracts the reproduction relies on;
* ``python -m repro serve -c threshold --n 5 --cluster-file cluster.json``
  — the networked service (:mod:`repro.service`): spawn one replica process
  per server (or, with ``--index``, run a single replica in-process) and
  publish their addresses;
* ``python -m repro loadgen --cluster cluster.json --ops 1000`` — drive
  concurrent live clients against a running cluster, check the recorded
  history, and emit a ``WorkloadReport``-shaped JSON artefact.

``--json`` switches every command to a machine-readable, schema-stable
payload on stdout.  Argument errors exit with status 2 and a one-line
message on stderr; infeasible computations (budget exhausted, no path
applies) exit with status 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.api.measures import Budget, available_measures, measure
from repro.api.registry import (
    SystemSpec,
    available_constructions,
    build,
    get_entry,
    spec_of,
)
from repro.api.scenarios import available_scenarios
from repro.api.workloads import WorkloadSpec, run
from repro.core.floats import is_zero
from repro.exceptions import (
    ComputationError,
    ConstructionError,
    InvalidParameterError,
    ReproError,
)

if TYPE_CHECKING:
    from repro.api.membership import MembershipSpec
    from repro.simulation.traces import TraceScenario

__all__ = ["main"]

#: Construction parameters the CLI understands; forwarded to the registry,
#: which rejects the ones a given construction does not take.
_PARAM_FLAGS = ("n", "side", "b", "k", "l", "q", "depth")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("construction parameters")
    for flag in _PARAM_FLAGS:
        group.add_argument(f"--{flag}", type=int, default=None)
    group.add_argument(
        "--rows",
        type=str,
        default=None,
        help="crumbling-wall row widths, comma separated (e.g. 3,4,5)",
    )


def _collect_params(args: argparse.Namespace) -> dict:
    params = {
        flag: getattr(args, flag)
        for flag in _PARAM_FLAGS
        if getattr(args, flag) is not None
    }
    if getattr(args, "rows", None) is not None:
        try:
            params["rows"] = [int(part) for part in args.rows.split(",") if part]
        except ValueError:
            raise InvalidParameterError(
                f"--rows must be comma-separated integers, got {args.rows!r}"
            ) from None
    return params


def _budget_from(args: argparse.Namespace) -> Budget:
    kwargs = {}
    if getattr(args, "trials", None) is not None:
        kwargs["trials"] = args.trials
    if getattr(args, "num_samples", None) is not None:
        kwargs["num_samples"] = args.num_samples
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return Budget(**kwargs)


def _emit(payload: Any, as_json: bool, human: Callable[[Any], None]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        human(payload)


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    payload = {
        "constructions": {
            name: {
                "summary": get_entry(name).summary,
                "masking": get_entry(name).masking,
                "params": [
                    {
                        "name": spec.name,
                        "required": spec.required,
                        "doc": spec.doc,
                    }
                    for spec in get_entry(name).params
                ],
            }
            for name in available_constructions()
        },
        "measures": available_measures(),
        "scenarios": available_scenarios(),
    }

    def human(data: Any) -> None:
        print("constructions:")
        for name, info in data["constructions"].items():
            required = ", ".join(
                p["name"] + ("" if p["required"] else "?") for p in info["params"]
            )
            print(f"  {name:15s} ({required:18s}) {info['summary']}")
        print("\nmeasures:")
        for name, doc in data["measures"].items():
            print(f"  {name:15s} {doc}")
        print("\nscenarios:")
        for name, doc in data["scenarios"].items():
            print(f"  {name:15s} {doc}")

    _emit(payload, args.json, human)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    result = measure(
        args.construction,
        args.measure,
        method=args.method,
        p=args.p,
        budget=_budget_from(args),
        **_collect_params(args),
    )
    payload = result.to_dict()

    def human(data: Any) -> None:
        if data["error_bound"] is None:
            bound = "  (bound only)"
        elif is_zero(data["error_bound"]):
            bound = ""
        else:
            bound = f"  ± {data['error_bound']:.3g}"
        at_p = f" at p={data['p']}" if "p" in data else ""
        print(
            f"{data['system']}  (n={data['n']})\n"
            f"  {data['measure']}{at_p} = {data['value']:.9g}{bound}\n"
            f"  via {data['method_used']} (requested {data['method_requested']})"
        )

    _emit(payload, args.json, human)
    return 0


def _load_trace(path: str) -> "TraceScenario":
    """Load a ``--trace`` JSON file into a TraceScenario."""
    from pathlib import Path

    from repro.simulation.traces import TraceScenario

    trace_path = Path(path)
    try:
        records = json.loads(trace_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidParameterError(f"cannot read trace file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"trace file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise InvalidParameterError(
            f"trace file {path!r} must hold a JSON array of "
            '{"t": <time>, "op": "read"|"write"} records'
        )
    try:
        return TraceScenario.from_records(trace_path.stem, records)
    except ReproError as exc:
        raise InvalidParameterError(f"trace file {path!r}: {exc}") from None


def _load_membership(raw: str) -> "MembershipSpec":
    """Parse a ``--membership`` JSON payload (inline or ``@file``)."""
    from pathlib import Path

    from repro.api.membership import MembershipSpec

    text = raw
    if raw.startswith("@"):
        try:
            text = Path(raw[1:]).read_text(encoding="utf-8")
        except OSError as exc:
            raise InvalidParameterError(
                f"cannot read membership file {raw[1:]!r}: {exc}"
            ) from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(
            f"--membership is not valid JSON: {exc}"
        ) from None
    return MembershipSpec.from_dict(payload)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = args.scenario
    if args.trace is not None:
        if scenario is not None:
            raise InvalidParameterError("--trace and --scenario are mutually exclusive")
        scenario = _load_trace(args.trace)
    membership = None
    if args.membership is not None:
        membership = _load_membership(args.membership)
    spec = WorkloadSpec(
        system=args.construction,
        params=_collect_params(args),
        b=args.protocol_b,
        scenario=scenario,
        operations=args.ops,
        clients=args.clients,
        write_fraction=args.write_fraction,
        strategy=args.strategy,
        seed=args.seed,
        max_attempts=args.max_attempts,
        num_samples=args.num_samples if args.num_samples is not None else 256,
        membership=membership,
    )
    report = run(spec, engine=args.engine)
    payload = report.to_dict()

    def human(data: Any) -> None:
        print(f"{data['system']}  (n={data['n']}, b={data['b']})")
        print(
            f"  engine={data['engine']}  scenario={data['scenario']}  "
            f"strategy={data['strategy']}  seed={data['seed']}"
            + ("  [sampled quorums]" if data["sampled"] else "")
        )
        print(
            f"  operations={data['operations']}  availability={data['availability']:.4f}  "
            f"reads={data['successful_reads']}  writes={data['successful_writes']}  "
            f"failed={data['failed_operations']}"
        )
        print(
            f"  consistent={data['consistent']}  violations={data['consistency_violations']}  "
            f"stale={data['stale_reads']}"
        )
        print(
            f"  empirical load={data['empirical_load']:.4f}  "
            f"busiest={data['busiest_server']}"
        )
        if data["latency_p50"] is not None:
            print(
                f"  latency mean={data['latency_mean']:.3f}  p50={data['latency_p50']:.3f}  "
                f"p90={data['latency_p90']:.3f}  p99={data['latency_p99']:.3f}  "
                f"timeouts={data['timeouts']}"
            )
        if data["epochs"]:
            print("  epochs:")
            for epoch in data["epochs"]:
                print(
                    f"    e{epoch['epoch']}: {epoch['system']}  n={epoch['n']}  "
                    f"b={epoch['b']}  policy={epoch['policy']}  "
                    f"ops={epoch['operations']}  "
                    f"load={epoch['empirical_load']:.4f}"
                )

    _emit(payload, args.json, human)
    return 0


def _service_spec(args: argparse.Namespace) -> SystemSpec:
    """Resolve ``--spec`` JSON or ``--construction`` + params into a spec."""
    raw = getattr(args, "spec", None)
    if raw is not None:
        if getattr(args, "construction", None) is not None:
            raise InvalidParameterError("--spec and --construction are mutually exclusive")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"--spec is not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or "construction" not in payload:
            raise InvalidParameterError(
                '--spec must be {"construction": <name>, "params": {...}}'
            )
        return SystemSpec.from_dict(payload)
    if getattr(args, "construction", None) is None:
        raise InvalidParameterError("either --spec or --construction is required")
    # Canonicalise through the registry so the spec round-trips JSON-stably.
    return spec_of(build(args.construction, **_collect_params(args)))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    spec = _service_spec(args)
    if args.index is not None:
        # Single-replica mode: the process the supervisor (or an operator)
        # spawns once per server.  Serves until terminated.
        from repro.service.replica import ReplicaConfig, run_replica

        config = ReplicaConfig(
            spec=spec,
            index=args.index,
            host=args.host,
            port=args.port,
            byzantine_behaviour=args.byzantine_behaviour,
            seed=args.seed,
            ready_file=args.ready_file,
            data_dir=args.data_dir,
            fsync=args.fsync,
            snapshot_every=args.snapshot_every,
        )
        try:
            asyncio.run(run_replica(config))
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return 0

    # Supervisor mode: one OS process per replica, addresses published
    # through the cluster file, runs until SIGTERM/SIGINT.
    import tempfile

    from repro.service.harness import ClusterSpec, ServiceCluster, run_supervisor

    cluster_spec = ClusterSpec(
        spec=spec,
        b=args.protocol_b,
        byzantine=args.byzantine,
        byzantine_behaviour=args.byzantine_behaviour or "forge-on-read",
        host=args.host,
        seed=args.seed,
        allow_overload=args.allow_overload,
        data_root=args.data_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    run_dir = args.run_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    cluster = ServiceCluster(cluster_spec, run_dir)
    cluster.start(timeout=args.ready_timeout)
    for handle in cluster.replicas:
        role = f"  [{handle.byzantine}]" if handle.byzantine else ""
        print(
            f"replica {handle.index}: {handle.host}:{handle.port}"
            f"  server={handle.server_id!r}{role}",
            flush=True,
        )
    if args.cluster_file:
        print(f"cluster file: {args.cluster_file}", flush=True)
    try:
        asyncio.run(run_supervisor(cluster, cluster_file=args.cluster_file))
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        cluster.terminate()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.service.harness import discover_initial_pair, load_cluster_file, run_load
    from repro.simulation.client import RetryPolicy
    from repro.simulation.history import dump_history_jsonl

    spec, b, replicas = load_cluster_file(args.cluster)
    system = build(spec)
    endpoints = {
        system.universe.element_at(int(descriptor["index"])): (
            str(descriptor["host"]),
            int(descriptor["port"]),
        )
        for descriptor in replicas
    }
    policy = RetryPolicy(
        max_attempts=args.max_attempts, request_timeout=args.timeout
    )
    protocol_b = b if args.protocol_b is None else args.protocol_b
    initial_pair = None
    if args.initial_from_cluster:
        # Server-side state discovery (b+1-vouched STATUS pairs): the durable
        # replacement for chaining a previous run's final_pair by hand.
        initial_pair = asyncio.run(
            discover_initial_pair(replicas, b=protocol_b, timeout=args.timeout)
        )
    result = asyncio.run(
        run_load(
            system,
            endpoints,
            b=protocol_b,
            operations=args.ops,
            clients=args.clients,
            write_fraction=args.write_fraction,
            mode=args.mode,
            rate=args.rate,
            policy=policy,
            strategy=args.strategy,
            seed=args.seed,
            replica_endpoints=replicas,
            initial_pair=initial_pair,
        )
    )
    payload = result.report(strategy_label=args.strategy or "uniform")
    if args.conformance:
        from repro.analysis.conformance import service_conformance

        payload["conformance"] = service_conformance(result).to_dict()
    if args.history is not None:
        dump_history_jsonl(result.records, args.history)
    if args.output is not None:
        Path(args.output).write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )

    def human(data: Any) -> None:
        print(f"{data['system']}  (n={data['n']}, b={data['b']})  engine=service")
        print(
            f"  operations={data['operations']}  clients={data['service']['clients']}  "
            f"availability={data['availability']:.4f}  duration={data['duration']:.2f}s"
        )
        print(
            f"  consistent={data['consistent']}  violations={data['consistency_violations']}  "
            f"stale={data['stale_reads']}  timeouts={data['timeouts']}"
        )
        print(
            f"  empirical load={data['empirical_load']:.4f}  "
            f"busiest={data['busiest_server']}"
        )
        if data["latency_p50"] is not None:
            print(
                f"  latency mean={data['latency_mean'] * 1e3:.2f}ms  "
                f"p50={data['latency_p50'] * 1e3:.2f}ms  "
                f"p90={data['latency_p90'] * 1e3:.2f}ms  "
                f"p99={data['latency_p99'] * 1e3:.2f}ms"
            )
        if "conformance" in data:
            verdict = "ok" if data["conformance"]["ok"] else "VIOLATED"
            print(f"  conformance: {verdict}")
            for check in data["conformance"]["checks"]:
                print(
                    f"    {check['metric']:22s} observed={check['observed']:.6g} "
                    f"{check['direction']} {check['bound']:.6g} "
                    f"(slack {check['slack']:.3g}) {'ok' if check['ok'] else 'FAIL'}"
                )

    _emit(payload, args.json, human)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(list(args.lint_args))


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import section8_comparison

    import numpy as np

    profiles = section8_comparison(
        n=args.n,
        p=args.p,
        rng=np.random.default_rng(args.seed),
        include_baselines=args.include_baselines,
    )
    payload = [
        {
            "system": profile.name,
            "n": profile.n,
            "b": profile.b,
            "f": profile.f,
            "load": profile.load,
            "fp": profile.crash_probability,
            "fp_kind": profile.crash_probability_kind,
        }
        for profile in profiles
    ]

    def human(rows: Any) -> None:
        print(f"Section 8 comparison at n≈{args.n}, p={args.p}")
        print(f"{'system':28s} {'n':>6s} {'b':>4s} {'f':>4s} {'L(Q)':>8s} {'Fp':>12s}  kind")
        for row in rows:
            print(
                f"{row['system']:28s} {row['n']:6d} {row['b']:4d} {row['f']:4d} "
                f"{row['load']:8.4f} {row['fp']:12.6g}  {row['fp_kind']}"
            )

    _emit(payload, args.json, human)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    budget = _budget_from(args)
    shared = _collect_params(args)
    rows = []
    for name in args.constructions:
        entry = get_entry(name)
        known = {spec.name for spec in entry.params}
        params = {
            key: value
            for key, value in shared.items()
            if key in known or (key == "n" and "side" in known)
        }
        system = build(name, **params)  # one build shared by every measure
        row: dict[str, object] = {"construction": name}
        load = measure(system, "load", method=args.method, budget=budget)
        row["system"] = load.system
        row["n"] = load.n
        row["load"] = load.to_dict()
        if args.p is not None:
            row["fp"] = measure(
                system, "fp", method=args.method, p=args.p, budget=budget
            ).to_dict()
        row["masking"] = measure(system, "masking", budget=budget).value
        row["resilience"] = measure(system, "resilience", budget=budget).value
        rows.append(row)

    def human(data: Any) -> None:
        has_fp = args.p is not None
        header = f"{'construction':15s} {'n':>6s} {'b':>4s} {'f':>4s} {'L(Q)':>9s}"
        if has_fp:
            header += f" {'Fp':>12s}"
        print(header + "  method")
        for row in data:
            line = (
                f"{row['construction']:15s} {row['n']:6d} {int(row['masking']):4d} "
                f"{int(row['resilience']):4d} {row['load']['value']:9.4f}"
            )
            methods = row["load"]["method_used"]
            if has_fp:
                line += f" {row['fp']['value']:12.6g}"
                methods += "/" + row["fp"]["method_used"]
            print(line + f"  {methods}")

    _emit(rows, args.json, human)
    return 0


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Masking quorum systems (Malkhi, Reiter & Wool, PODC 1997): "
            "build constructions, compute the paper's measures, run workloads."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="show the construction registry, measures and scenarios"
    )
    list_parser.add_argument("--json", action="store_true")
    list_parser.set_defaults(handler=_cmd_list)

    measure_parser = commands.add_parser(
        "measure", help="compute one measure of one construction"
    )
    measure_parser.add_argument("construction", help="registry name (see 'list')")
    measure_parser.add_argument(
        "--measure",
        default="load",
        choices=sorted(available_measures()),
        help="which measure (default: load)",
    )
    measure_parser.add_argument(
        "--method",
        default="auto",
        choices=("auto", "exact", "analytic", "sampled"),
        help="computation path (default: auto policy)",
    )
    measure_parser.add_argument("--p", type=float, default=None, help="crash probability (fp/availability)")
    measure_parser.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials budget")
    measure_parser.add_argument("--num-samples", dest="num_samples", type=int, default=None)
    measure_parser.add_argument("--seed", type=int, default=None)
    measure_parser.add_argument("--json", action="store_true")
    _add_param_flags(measure_parser)
    measure_parser.set_defaults(handler=_cmd_measure)

    run_parser = commands.add_parser(
        "run", help="run a workload experiment and print its report"
    )
    run_parser.add_argument("--construction", "-c", required=True, help="registry name")
    run_parser.add_argument(
        "--scenario", default=None, help="catalogue scenario name (default: fault-free)"
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        help=(
            "JSON trace file of open-loop arrivals "
            '([{"t": <time>, "op": "read"|"write"}, ...]); replayed on the '
            "event engine (mutually exclusive with --scenario)"
        ),
    )
    run_parser.add_argument(
        "--membership",
        default=None,
        help=(
            "membership reconfiguration spec as JSON (or @file): "
            '{"events": [{"kind": "sever", "count": 9}, ...], '
            '"fractions": null, "policy": "reweight"}; mutually exclusive '
            "with --scenario (named reconfig-* scenarios carry their own)"
        ),
    )
    run_parser.add_argument(
        "--engine", default="auto", choices=("auto", "vectorized", "event")
    )
    run_parser.add_argument("--ops", type=int, default=200, help="total operations")
    run_parser.add_argument("--clients", type=int, default=4)
    run_parser.add_argument(
        "--write-fraction", dest="write_fraction", type=float, default=0.5
    )
    run_parser.add_argument(
        "--strategy", default=None, choices=(None, "uniform", "optimal")
    )
    run_parser.add_argument(
        "--protocol-b",
        dest="protocol_b",
        type=int,
        default=None,
        help="masking parameter for the protocol (default: the system's bound)",
    )
    run_parser.add_argument("--max-attempts", dest="max_attempts", type=int, default=10)
    run_parser.add_argument("--num-samples", dest="num_samples", type=int, default=None)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--json", action="store_true")
    _add_param_flags(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    serve_parser = commands.add_parser(
        "serve",
        help=(
            "run the networked replica service: a whole cluster of replica "
            "processes (supervisor mode) or one replica (--index)"
        ),
    )
    serve_parser.add_argument(
        "--construction", "-c", default=None, help="registry name"
    )
    serve_parser.add_argument(
        "--spec",
        default=None,
        help='system spec as JSON: {"construction": <name>, "params": {...}}',
    )
    serve_parser.add_argument(
        "--index",
        type=int,
        default=None,
        help="serve exactly one replica, this universe index (single mode)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0, help="listen port (single mode; 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--ready-file",
        dest="ready_file",
        default=None,
        help="publish the bound address here once listening (single mode)",
    )
    serve_parser.add_argument(
        "--cluster-file",
        dest="cluster_file",
        default=None,
        help="write the cluster description loadgen consumes (supervisor mode)",
    )
    serve_parser.add_argument(
        "--run-dir",
        dest="run_dir",
        default=None,
        help="directory for replica ready files (default: a temp dir)",
    )
    serve_parser.add_argument(
        "--protocol-b",
        dest="protocol_b",
        type=int,
        default=None,
        help="masking parameter (default: the system's bound)",
    )
    serve_parser.add_argument(
        "--byzantine",
        type=int,
        default=0,
        help="how many replicas serve Byzantine behaviour (supervisor mode)",
    )
    serve_parser.add_argument(
        "--byzantine-behaviour",
        dest="byzantine_behaviour",
        default=None,
        help=(
            "Byzantine behaviour: fabricate-timestamp, forge-on-read, stale, "
            "random-value or drop-writes (single mode: make this replica lie)"
        ),
    )
    serve_parser.add_argument(
        "--allow-overload",
        dest="allow_overload",
        action="store_true",
        help="permit more Byzantine replicas than b (negative tests)",
    )
    serve_parser.add_argument(
        "--data-dir",
        dest="data_dir",
        default=None,
        help=(
            "durable state directory: the replica's own (single mode) or the "
            "root for per-replica replica-<i> subdirectories (supervisor "
            "mode); omitted = memory-only replicas"
        ),
    )
    serve_parser.add_argument(
        "--fsync",
        default="always",
        help=(
            "write-ahead-log fsync policy: always, interval[:N] or never "
            "(requires --data-dir; default: always)"
        ),
    )
    serve_parser.add_argument(
        "--snapshot-every",
        dest="snapshot_every",
        type=int,
        default=1024,
        help=(
            "journalled writes between snapshot+log-compaction cycles "
            "(0 disables compaction; requires --data-dir)"
        ),
    )
    serve_parser.add_argument(
        "--ready-timeout",
        dest="ready_timeout",
        type=float,
        default=None,
        help=(
            "seconds to wait for every replica to bind (supervisor mode; "
            "default scales with the replica count)"
        ),
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    _add_param_flags(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    loadgen_parser = commands.add_parser(
        "loadgen",
        help="drive concurrent live clients against a running cluster",
    )
    loadgen_parser.add_argument(
        "--cluster",
        required=True,
        help="cluster file written by 'serve --cluster-file'",
    )
    loadgen_parser.add_argument("--ops", type=int, default=1000, help="total operations")
    loadgen_parser.add_argument(
        "--clients", type=int, default=32, help="concurrent client coroutines"
    )
    loadgen_parser.add_argument(
        "--write-fraction", dest="write_fraction", type=float, default=0.5
    )
    loadgen_parser.add_argument(
        "--mode",
        default="closed",
        choices=("closed", "open"),
        help="closed loop (back-to-back) or open loop (diurnal arrivals)",
    )
    loadgen_parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="open-loop target throughput in ops/second (0 = no pacing)",
    )
    loadgen_parser.add_argument(
        "--strategy", default=None, choices=(None, "uniform", "optimal")
    )
    loadgen_parser.add_argument(
        "--protocol-b",
        dest="protocol_b",
        type=int,
        default=None,
        help="override the cluster file's masking parameter",
    )
    loadgen_parser.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        help="per-request timeout in seconds (RetryPolicy.request_timeout)",
    )
    loadgen_parser.add_argument("--max-attempts", dest="max_attempts", type=int, default=10)
    loadgen_parser.add_argument(
        "--initial-from-cluster",
        dest="initial_from_cluster",
        action="store_true",
        help=(
            "discover the register state the cluster already holds (b+1-"
            "vouched STATUS pairs) and hand it to the checker as the run's "
            "initial pair — for runs against a recovered durable cluster"
        ),
    )
    loadgen_parser.add_argument(
        "--conformance",
        action="store_true",
        help="run live-traffic conformance checks and embed the verdict",
    )
    loadgen_parser.add_argument(
        "--history",
        default=None,
        help="write the recorded history as JSON Lines (checker-replayable)",
    )
    loadgen_parser.add_argument(
        "--output", default=None, help="write the JSON report here as well"
    )
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.add_argument("--json", action="store_true")
    loadgen_parser.set_defaults(handler=_cmd_loadgen)

    lint_parser = commands.add_parser(
        "lint",
        help="run the AST invariant linter and strict typing gate (repro.lint)",
        add_help=False,
    )
    lint_parser.add_argument("lint_args", nargs=argparse.REMAINDER)
    lint_parser.set_defaults(handler=_cmd_lint)

    table_parser = commands.add_parser(
        "table", help="the Section 8 comparison table at a given n and p"
    )
    table_parser.add_argument("--n", type=int, default=1024)
    table_parser.add_argument("--p", type=float, default=0.125)
    table_parser.add_argument("--include-baselines", action="store_true")
    table_parser.add_argument("--seed", type=int, default=0)
    table_parser.add_argument("--json", action="store_true")
    table_parser.set_defaults(handler=_cmd_table)

    compare_parser = commands.add_parser(
        "compare", help="compare several constructions at shared parameters"
    )
    compare_parser.add_argument(
        "constructions", nargs="+", help="registry names (see 'list')"
    )
    compare_parser.add_argument("--p", type=float, default=None)
    compare_parser.add_argument(
        "--method", default="auto", choices=("auto", "exact", "analytic", "sampled")
    )
    compare_parser.add_argument("--trials", type=int, default=None)
    compare_parser.add_argument("--num-samples", dest="num_samples", type=int, default=None)
    compare_parser.add_argument("--seed", type=int, default=None)
    compare_parser.add_argument("--json", action="store_true")
    _add_param_flags(compare_parser)
    compare_parser.set_defaults(handler=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # Hand the whole tail to the linter's own parser before argparse sees
        # it: nargs=REMAINDER does not reliably swallow leading option flags
        # (``lint --json`` would error at the top level otherwise).
        from repro.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    parser = _build_parser()
    args = parser.parse_args(arguments)
    try:
        return args.handler(args)
    except (InvalidParameterError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ComputationError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
