"""``python -m repro`` — the facade from the shell.

Seven commands drive the facade so paper tables, measure trajectories,
workload runs and the live service are reproducible without writing Python:

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

A flag that sets a field of a spec is declared once, on the field (see
:func:`add_spec_flags`): ``run`` takes its flags from
:class:`~repro.api.workloads.WorkloadSpec`, ``measure`` and ``compare`` from
:class:`~repro.api.measures.Budget`, ``serve`` from
:class:`~repro.service.replica.ReplicaConfig` and
:class:`~repro.service.harness.ClusterSpec`.  :func:`argv_of` turns a spec
back into flags; a supervisor spawns its replicas that way.

``--json`` switches every command to a machine-readable, schema-stable
payload on stdout.  Argument errors — a spec refusing what argv gave it
included — exit with status 2 and a one-line message on stderr; infeasible
computations (budget exhausted, no path applies) exit with status 3.  A
reader that closes stdout early (``| head``) ends the command with status 1
and no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any, TypeVar

from repro.api.measures import Budget, available_measures, measure
from repro.api.registry import SystemSpec, available_constructions, build, get_entry, spec_of
from repro.api.scenarios import available_scenarios
from repro.api.workloads import ENGINES, WorkloadSpec, run
from repro.core.floats import is_zero
from repro.exceptions import ConstructionError, InvalidParameterError, ReproError

if TYPE_CHECKING:
    from repro.api.membership import MembershipSpec
    from repro.simulation.traces import TraceScenario

__all__ = ["add_spec_flags", "argv_of", "main", "spec_from_args"]

SpecT = TypeVar("SpecT")

#: Construction parameters the CLI understands; forwarded to the registry,
#: which rejects the ones a given construction does not take.
_PARAM_FLAGS = ("n", "side", "b", "k", "l", "q", "depth")

_METHODS = ("auto", "exact", "analytic", "sampled")


# ----------------------------------------------------------------------
# Flags derived from spec fields.
# ----------------------------------------------------------------------
def _system_spec(raw: str) -> SystemSpec:
    try:
        return SystemSpec.from_dict(json.loads(raw))
    except (ValueError, TypeError, ReproError) as exc:
        raise argparse.ArgumentTypeError(
            f'expected JSON {{"construction": <name>, "params": {{...}}}}: {exc}'
        ) from None


#: A flag parses its value as the first member of its field's annotation
#: listed here, and as ``str`` when none is.
_ARG_TYPES: dict[str, Callable[[str], Any]] = {
    "int": int, "float": float, "str": str, "SystemSpec": _system_spec
}


def _spec_flags(cls: type) -> list[tuple[dataclasses.Field[Any], str, str]]:
    """``(field, option string, dest)`` for each field of ``cls`` that is a flag.

    A field is a flag when its metadata carries ``"help"``; the option
    string is ``metadata["flag"]``, or ``--`` plus the field name.
    """
    flags: list[tuple[dataclasses.Field[Any], str, str]] = []
    for spec_field in dataclasses.fields(cls):
        if "help" in spec_field.metadata:
            flag = spec_field.metadata.get("flag", "--" + spec_field.name.replace("_", "-"))
            flags.append((spec_field, flag, flag[2:].replace("-", "_")))
    return flags


def add_spec_flags(parser: argparse.ArgumentParser, cls: type) -> None:
    """Declare one flag per field of the dataclass ``cls`` that is a flag.

    The flag's type comes from the field's annotation (a ``bool`` field is a
    switch), its help text and optional ``choices`` from the field's
    metadata.  An absent flag leaves no attribute on the namespace, so
    :func:`spec_from_args` applies the dataclass default.  A flag an earlier
    spec already declared is shared; its help text gains this field's.
    """
    for spec_field, flag, _dest in _spec_flags(cls):
        text = spec_field.metadata["help"]
        if spec_field.type != "bool" and spec_field.default not in (None, dataclasses.MISSING):
            text += f" (default: {spec_field.default})"
        shared = parser._option_string_actions.get(flag)
        if shared is not None:
            if text not in str(shared.help):
                shared.help = f"{shared.help}; {text}"
        elif spec_field.type == "bool":
            parser.add_argument(flag, action="store_true", default=argparse.SUPPRESS, help=text)
        else:
            members = str(spec_field.type).replace(" ", "").split("|")
            parser.add_argument(
                flag,
                type=next((_ARG_TYPES[name] for name in members if name in _ARG_TYPES), str),
                choices=spec_field.metadata.get("choices"),
                default=argparse.SUPPRESS,
                help=text,
            )


def spec_from_args(cls: type[SpecT], args: argparse.Namespace, **fields: Any) -> SpecT:
    """Build ``cls`` from the flags :func:`add_spec_flags` declared on ``args``.

    ``fields`` supplies (or overrides) fields the flags do not; a field with
    neither takes its dataclass default.  Whatever the spec refuses raises
    :class:`~repro.exceptions.InvalidParameterError` (exit status 2).
    """
    given = {field.name: getattr(args, dest) for field, _, dest in _spec_flags(cls) if dest in args}
    try:
        return cls(**{**given, **fields})
    except ReproError as exc:
        raise InvalidParameterError(str(exc)) from None


def argv_of(spec: Any) -> list[str]:
    """The flags that rebuild the dataclass ``spec`` through :func:`spec_from_args`.

    Fields equal to their default are left out.
    """
    argv: list[str] = []
    for spec_field, flag, _dest in _spec_flags(type(spec)):
        value = getattr(spec, spec_field.name)
        if value == spec_field.default:
            continue
        if value is True:
            argv.append(flag)
        elif isinstance(value, SystemSpec):
            argv += [flag, json.dumps(value.to_dict())]
        else:
            argv += [flag, str(value)]
    return argv


# ----------------------------------------------------------------------
# Hand-written arguments.
# ----------------------------------------------------------------------
def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("construction parameters")
    for flag in _PARAM_FLAGS:
        group.add_argument(f"--{flag}", type=int)
    group.add_argument("--rows", help="crumbling-wall row widths, comma separated (e.g. 3,4,5)")


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


def _read_json(path: str, what: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {what} {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"{what} {path!r} is not valid JSON: {exc}") from None


def _load_trace(path: str) -> "TraceScenario":
    """Load a ``--trace`` JSON file into a TraceScenario."""
    from repro.simulation.traces import TraceScenario

    records = _read_json(path, "trace file")
    try:
        return TraceScenario.from_records(Path(path).stem, records)
    except ReproError as exc:
        raise InvalidParameterError(f"trace file {path!r}: {exc}") from None


def _load_membership(raw: str) -> "MembershipSpec":
    """Parse a ``--membership`` JSON payload (inline or ``@file``)."""
    from repro.api.membership import MembershipSpec

    if raw.startswith("@"):
        return MembershipSpec.from_dict(_read_json(raw[1:], "membership file"))
    try:
        return MembershipSpec.from_dict(json.loads(raw))
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"--membership is not valid JSON: {exc}") from None


def _emit(payload: Any, as_json: bool, human: Callable[[Any], None]) -> int:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        human(payload)
    return 0


def _print_report(data: Any) -> None:
    """The human form of a ``WorkloadReport``-shaped payload (``run``, ``loadgen``)."""
    live = data["engine"] == "service"
    extra = "  [sampled quorums]" if data["sampled"] else ""
    if live:
        extra = f"  clients={data['service']['clients']}  duration={data['duration']:.2f}s"
    print(
        f"{data['system']}  (n={data['n']}, b={data['b']})\n"
        f"  engine={data['engine']}  scenario={data['scenario']}  "
        f"strategy={data['strategy']}  seed={data['seed']}{extra}\n"
        f"  operations={data['operations']}  availability={data['availability']:.4f}  "
        f"reads={data['successful_reads']}  writes={data['successful_writes']}  "
        f"failed={data['failed_operations']}\n"
        f"  consistent={data['consistent']}  violations={data['consistency_violations']}  "
        f"stale={data['stale_reads']}\n"
        f"  empirical load={data['empirical_load']:.4f}  busiest={data['busiest_server']}"
    )
    if data["latency_p50"] is not None:
        # A live run's times are wall-clock seconds, a simulated run's are time units.
        scale, unit = (1e3, "ms") if live else (1.0, "")
        latency = "  ".join(
            f"{key}={data['latency_' + key] * scale:.3f}{unit}"
            for key in ("mean", "p50", "p90", "p99")
        )
        print(f"  latency {latency}  timeouts={data['timeouts']}")
    for epoch in data["epochs"] or ():
        print(
            f"  epoch {epoch['epoch']}: {epoch['system']}  n={epoch['n']}  b={epoch['b']}  "
            f"policy={epoch['policy']}  ops={epoch['operations']}  "
            f"load={epoch['empirical_load']:.4f}"
        )
    if "conformance" in data:
        print(f"  conformance: {'ok' if data['conformance']['ok'] else 'VIOLATED'}")
        for check in data["conformance"]["checks"]:
            print(
                f"    {check['metric']:22s} observed={check['observed']:.6g} "
                f"{check['direction']} {check['bound']:.6g} "
                f"(slack {check['slack']:.3g}) {'ok' if check['ok'] else 'FAIL'}"
            )


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

    return _emit(payload, args.json, human)


def _cmd_measure(args: argparse.Namespace) -> int:
    result = measure(
        args.construction,
        args.measure,
        method=args.method,
        p=args.p,
        budget=spec_from_args(Budget, args),
        **_collect_params(args),
    )

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

    return _emit(result.to_dict(), args.json, human)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace is not None:
        if "scenario" in args:
            raise InvalidParameterError("--trace and --scenario are mutually exclusive")
        args.scenario = _load_trace(args.trace)
    spec = spec_from_args(
        WorkloadSpec,
        args,
        system=args.construction,
        params=_collect_params(args),
        membership=None if args.membership is None else _load_membership(args.membership),
    )
    return _emit(run(spec, engine=args.engine).to_dict(), args.json, _print_report)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import tempfile

    from repro.service.harness import ClusterSpec, ServiceCluster, run_supervisor
    from repro.service.replica import ReplicaConfig, run_replica

    if "spec" in args:
        if args.construction is not None:
            raise InvalidParameterError("--spec and --construction are mutually exclusive")
    elif args.construction is None:
        raise InvalidParameterError("either --spec or --construction is required")
    else:
        # Canonicalise through the registry so the spec round-trips JSON-stably.
        args.spec = spec_of(build(args.construction, **_collect_params(args)))
    if "index" in args:
        # Single-replica mode: the process the supervisor (or an operator)
        # spawns once per server.  Serves until terminated.
        config = spec_from_args(ReplicaConfig, args)
        try:
            asyncio.run(run_replica(config))
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return 0

    # Supervisor mode: one OS process per replica, addresses published
    # through the cluster file, runs until SIGTERM/SIGINT.
    cluster_spec = spec_from_args(ClusterSpec, args)
    run_dir = args.run_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    try:
        cluster = ServiceCluster(cluster_spec, run_dir)  # checks every replica's config
    except ReproError as exc:  # ... before anything is spawned: an argument error
        raise InvalidParameterError(str(exc)) from None
    cluster.start(timeout=args.ready_timeout)
    # The replicas run in their own sessions: whatever ends this command
    # (a closed stdout included) must stop them.
    try:
        for handle in cluster.replicas:
            role = f"  [{handle.byzantine}]" if handle.byzantine else ""
            print(
                f"replica {handle.index}: {handle.host}:{handle.port}"
                f"  server={handle.server_id!r}{role}",
                flush=True,
            )
        if args.cluster_file:
            print(f"cluster file: {args.cluster_file}", flush=True)
        asyncio.run(run_supervisor(cluster, cluster_file=args.cluster_file))
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        cluster.terminate()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.harness import discover_initial_pair, load_cluster_file, run_load
    from repro.simulation.client import RetryPolicy
    from repro.simulation.history import dump_history_jsonl

    spec, b, replicas = load_cluster_file(args.cluster)
    system = build(spec)
    endpoints = {
        system.universe.element_at(descriptor["index"]): (descriptor["host"], descriptor["port"])
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
    return _emit(payload, args.json, _print_report)


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

    return _emit(payload, args.json, human)


def _cmd_compare(args: argparse.Namespace) -> int:
    budget = spec_from_args(Budget, args)
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

    return _emit(rows, args.json, human)


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------
def _build_parser(chosen: str | None = None) -> argparse.ArgumentParser:
    """The whole parser; ``chosen`` names the command about to run, if known.

    ``serve``'s flags come from the service's specs, whose modules the other
    commands never import: they are declared only when ``chosen`` may be
    ``serve``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Masking quorum systems (Malkhi, Reiter & Wool, PODC 1997): "
            "build constructions, compute the paper's measures, run workloads."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, handler: Callable[[argparse.Namespace], int], text: str, json: bool = True
    ) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=text)
        sub.set_defaults(handler=handler)
        if json:
            sub.add_argument("--json", action="store_true")
        return sub

    command("list", _cmd_list, "show the construction registry, measures and scenarios")

    sub = command("measure", _cmd_measure, "compute one measure of one construction")
    sub.add_argument("construction", help="registry name (see 'list')")
    sub.add_argument(
        "--measure",
        default="load",
        choices=sorted(available_measures()),
        help="which measure (default: load)",
    )
    sub.add_argument(
        "--method", default="auto", choices=_METHODS, help="computation path (default: auto policy)"
    )
    sub.add_argument("--p", type=float, help="crash probability (fp/availability)")
    add_spec_flags(sub, Budget)
    _add_param_flags(sub)

    sub = command("run", _cmd_run, "run a workload experiment and print its report")
    sub.add_argument("--construction", "-c", required=True, help="registry name")
    sub.add_argument(
        "--trace",
        help='JSON trace file of open-loop arrivals ([{"t": <time>, "op": "read"|"write"}, '
        "...]); replayed on the event engine (mutually exclusive with --scenario)",
    )
    sub.add_argument(
        "--membership",
        help='membership reconfiguration spec as JSON (or @file): {"events": [{"kind": '
        '"sever", "count": 9}, ...], "fractions": null, "policy": "reweight"}; mutually '
        "exclusive with --scenario (named reconfig-* scenarios carry their own)",
    )
    sub.add_argument("--engine", default="auto", choices=ENGINES)
    add_spec_flags(sub, WorkloadSpec)
    _add_param_flags(sub)

    sub = command(
        "serve",
        _cmd_serve,
        "run the networked replica service: a whole cluster of replica processes "
        "(supervisor mode) or one replica (--index)",
        json=False,
    )
    sub.add_argument("--construction", "-c", help="registry name (or give --spec)")
    if chosen in (None, "serve"):
        from repro.service.harness import ClusterSpec
        from repro.service.replica import ReplicaConfig

        add_spec_flags(sub, ReplicaConfig)
        add_spec_flags(sub, ClusterSpec)
    sub.add_argument(
        "--cluster-file",
        help="write the cluster description loadgen consumes (supervisor mode)",
    )
    sub.add_argument("--run-dir", help="directory for replica ready files (default: a temp dir)")
    sub.add_argument(
        "--ready-timeout",
        type=float,
        help=(
            "seconds to wait for every replica to bind (supervisor mode; "
            "default scales with the replica count)"
        ),
    )
    _add_param_flags(sub)

    sub = command(
        "loadgen", _cmd_loadgen, "drive concurrent live clients against a running cluster"
    )
    sub.add_argument(
        "--cluster", required=True, help="cluster file written by 'serve --cluster-file'"
    )
    sub.add_argument("--ops", type=int, default=1000, help="total operations")
    sub.add_argument("--clients", type=int, default=32, help="concurrent client coroutines")
    sub.add_argument("--write-fraction", type=float, default=0.5)
    sub.add_argument(
        "--mode",
        default="closed",
        choices=("closed", "open"),
        help="closed loop (back-to-back) or open loop (diurnal arrivals)",
    )
    sub.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="open-loop target throughput in ops/second (0 = no pacing)",
    )
    sub.add_argument("--strategy", choices=("uniform", "optimal"))
    sub.add_argument("--protocol-b", type=int, help="override the cluster file's masking parameter")
    sub.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        help="per-request timeout in seconds (RetryPolicy.request_timeout)",
    )
    sub.add_argument("--max-attempts", type=int, default=10)
    sub.add_argument(
        "--initial-from-cluster",
        action="store_true",
        help="discover the register state the cluster already holds (b+1-vouched STATUS "
        "pairs) and hand it to the checker as the run's initial pair — for runs against "
        "a recovered durable cluster",
    )
    sub.add_argument(
        "--conformance",
        action="store_true",
        help="run live-traffic conformance checks and embed the verdict",
    )
    sub.add_argument(
        "--history", help="write the recorded history as JSON Lines (checker-replayable)"
    )
    sub.add_argument("--output", help="write the JSON report here as well")
    sub.add_argument("--seed", type=int, default=0)

    # ``main`` hands ``lint`` to the linter's own parser; this entry lists it.
    commands.add_parser(
        "lint",
        help="run the AST invariant linter and strict typing gate (repro.lint)",
        add_help=False,
    ).add_argument("lint_args", nargs=argparse.REMAINDER)

    sub = command("table", _cmd_table, "the Section 8 comparison table at a given n and p")
    sub.add_argument("--n", type=int, default=1024)
    sub.add_argument("--p", type=float, default=0.125)
    sub.add_argument("--include-baselines", action="store_true")
    sub.add_argument("--seed", type=int, default=0)

    sub = command("compare", _cmd_compare, "compare several constructions at shared parameters")
    sub.add_argument("constructions", nargs="+", help="registry names (see 'list')")
    sub.add_argument("--p", type=float)
    sub.add_argument("--method", default="auto", choices=_METHODS)
    add_spec_flags(sub, Budget)
    _add_param_flags(sub)
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
    args = _build_parser(arguments[0] if arguments else None).parse_args(arguments)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull so
        # the interpreter's final flush does not fail a second time.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # stdout is not a file descriptor
            pass
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (InvalidParameterError, ConstructionError)) else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
