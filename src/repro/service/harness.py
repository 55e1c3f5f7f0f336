"""Supervisor and load generator for the networked register service.

Three layers, each usable on its own:

* :class:`ServiceCluster` — spawns one OS process per replica (``python -m
  repro serve --index i``), discovers each replica's ephemeral port through
  its ready file, and supports the fault-injection verbs the simulator's
  :class:`~repro.simulation.faults.FaultScenario` models: ``kill`` (crash),
  ``restart`` (rejoin), and — via control frames — ``stall``/``resume``
  (slow server).  A cluster can also designate Byzantine replicas, which
  then run the simulator's :class:`ByzantineReplicaServer` behaviours live.
* ``run_load`` — the load generator: N concurrent
  :class:`~repro.service.client.ServiceQuorumClient` coroutines drive
  closed-loop or open-loop (``simulation/traces.py`` arrival-model) traffic
  against a cluster, every operation lands in one shared
  :class:`~repro.simulation.history.HistoryRecorder`, and the result is a
  :class:`ServiceRunResult` whose ``report()`` is a
  :class:`~repro.api.workloads.WorkloadReport`-shaped dict
  (``engine="service"``) extended with a ``"service"`` section (per-replica
  STATUS/METRICS, checker verdict, protocol accounting).
* cluster files — ``{"spec", "b", "replicas": [...]}`` JSON handed from
  ``python -m repro serve`` to ``python -m repro loadgen`` so the two CLI
  verbs compose across processes (and so tests replay against a cluster
  they did not spawn).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Hashable

from repro.api.cli import argv_of
from repro.api.registry import SystemSpec, build, spec_of
from repro.api.workloads import assemble_report
from repro.core.quorum_system import QuorumSystem
from repro.core.rng import ensure_rng
from repro.core.strategy import Strategy
from repro.exceptions import InvalidParameterError, ServiceError
from repro.service import wire
from repro.service.client import ServiceQuorumClient, call_endpoint
from repro.service.replica import ReplicaConfig
from repro.simulation.client import RetryPolicy, access_frequencies, vouched_pair
from repro.simulation.engine import WorkloadResult, resolve_strategy
from repro.simulation.history import HistoryCheck, HistoryRecorder, OperationRecord
from repro.simulation.messages import ValueTimestampPair
from repro.simulation.runner import latency_summary
from repro.simulation.server import check_inherited_pair
from repro.simulation.traces import TraceScenario

__all__ = [
    "ClusterSpec",
    "ReplicaHandle",
    "ServiceCluster",
    "ServiceRunResult",
    "discover_initial_pair",
    "load_cluster_file",
    "run_load",
    "run_supervisor",
]

#: How long `ServiceCluster.start` waits for every ready file by default.
DEFAULT_READY_TIMEOUT = 30.0


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of one replica cluster.

    Each field is also a ``python -m repro serve`` flag (supervisor mode)
    whose help text is its ``metadata["help"]``.  ``byzantine > b`` is
    rejected unless ``allow_overload`` — exactly the simulator's guard.
    The per-replica configs derive from it in one place,
    :class:`ServiceCluster`: replica ``i`` gets seed ``seed + i`` and data
    directory ``<data_root>/replica-<i>``, and the *last* ``byzantine``
    indices lie (a deterministic choice, so runs are reproducible).  Without
    ``data_root`` the cluster is memory-only and a restarted replica rejoins
    empty.
    """

    spec: SystemSpec = field(
        metadata={"help": 'system spec as JSON: {"construction": <name>, "params": {...}}'}
    )
    b: int | None = field(
        default=None,
        metadata={
            "flag": "--protocol-b",
            "help": "masking parameter (default: the system's bound)",
        },
    )
    byzantine: int = field(
        default=0, metadata={"help": "how many replicas serve Byzantine behaviour"}
    )
    byzantine_behaviour: str = field(
        default="forge-on-read",
        metadata={"help": "for a cluster, the lie its Byzantine replicas tell"},
    )
    host: str = field(default="127.0.0.1", metadata={"help": "listen host"})
    seed: int = field(default=0, metadata={"help": "for a cluster, replica i's is seed + i"})
    allow_overload: bool = field(
        default=False,
        metadata={"help": "permit more Byzantine replicas than b (negative tests)"},
    )
    data_root: str | None = field(
        default=None,
        metadata={
            "flag": "--data-dir",
            "help": "for a cluster, the root of the replicas' own directories "
            "replica-<i>",
        },
    )
    fsync: str = field(
        default="always",
        metadata={"help": "write-ahead-log fsync policy: always, interval[:N] or never"},
    )
    snapshot_every: int = field(
        default=1024,
        metadata={
            "help": "journalled writes between snapshot+log-compaction cycles "
            "(0 disables compaction)"
        },
    )

    def resolve(self) -> tuple[QuorumSystem, int]:
        """Build the system and resolve the masking parameter."""
        system = build(self.spec)
        b = self.b if self.b is not None else system.masking_bound()
        if b < 0:
            raise ServiceError(f"masking parameter must be >= 0, got {b}")
        if self.byzantine < 0 or self.byzantine > len(system.universe):
            raise ServiceError(
                f"byzantine count {self.byzantine} outside [0, {len(system.universe)}]"
            )
        if self.byzantine > b and not self.allow_overload:
            raise ServiceError(
                f"{self.byzantine} Byzantine replicas exceed the masking "
                f"parameter b={b}; pass allow_overload=True for negative tests"
            )
        return system, b


@dataclass
class ReplicaHandle:
    """One spawned replica process and its discovered address."""

    index: int
    server_id: Hashable
    byzantine: str | None = None
    host: str = ""
    port: int = 0
    process: subprocess.Popen | None = None
    ready_file: Path | None = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class ServiceCluster:
    """Spawn, address and fault-inject one replica process per server.

    Use as a context manager (``with ServiceCluster(...) as cluster``) or
    call :meth:`start` / :meth:`terminate` explicitly.  ``run_dir`` holds
    the ready files; it must outlive the cluster.
    """

    def __init__(self, cluster: ClusterSpec, run_dir: str | Path):
        self.cluster = cluster
        self.run_dir = Path(run_dir)
        self.system, self.b = cluster.resolve()
        n = len(self.system.universe)
        # One config per replica, each validated before anything is spawned.
        self._configs = [
            ReplicaConfig(
                spec=cluster.spec,
                index=index,
                host=cluster.host,
                byzantine_behaviour=(
                    cluster.byzantine_behaviour if index >= n - cluster.byzantine else None
                ),
                seed=cluster.seed + index,
                ready_file=str(self.run_dir / f"replica-{index}.ready"),
                data_dir=(
                    None
                    if cluster.data_root is None
                    else str(Path(cluster.data_root) / f"replica-{index}")
                ),
                fsync=cluster.fsync,
                snapshot_every=cluster.snapshot_every,
            )
            for index in range(n)
        ]
        self.replicas: list[ReplicaHandle] = [
            ReplicaHandle(
                index=config.index,
                server_id=self.system.universe.element_at(config.index),
                byzantine=config.byzantine_behaviour,
            )
            for config in self._configs
        ]

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def __enter__(self) -> "ServiceCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.terminate()

    def start(self, *, timeout: float | None = None) -> None:
        """Spawn every replica and wait until all published their ports.

        If a replica cannot be spawned, exits early or misses the deadline,
        every replica spawned so far is terminated before the error
        propagates: they run in their own sessions, so nothing else would
        reap them.

        The default deadline scales with the replica count.  A replica
        loads only the service path, not scipy, and is ready in about
        0.45 s on a 2-core machine (see ``docs/service.md``, "Cold
        start").  Start-up is still effectively serial on small machines,
        so a 16-replica cluster legitimately needs several times a
        5-replica cluster's budget; ``5.0 * n`` keeps a wide margin for
        loaded CI hosts.
        """
        if timeout is None:
            timeout = max(DEFAULT_READY_TIMEOUT, 5.0 * len(self.replicas))
        self.run_dir.mkdir(parents=True, exist_ok=True)
        try:
            for handle in self.replicas:
                self._spawn(handle)
            deadline = time.monotonic() + timeout
            for handle in self.replicas:
                self._await_ready(handle, deadline)
        except BaseException:
            self.terminate()
            raise

    def _spawn(self, handle: ReplicaHandle) -> None:
        config = self._configs[handle.index]
        assert config.ready_file is not None  # every cluster config names one
        ready_file = Path(config.ready_file)
        ready_file.unlink(missing_ok=True)
        command = [sys.executable, "-m", "repro", "serve", *argv_of(config)]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        handle.ready_file = ready_file
        handle.process = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

    def _await_ready(self, handle: ReplicaHandle, deadline: float) -> None:
        assert handle.ready_file is not None
        while time.monotonic() < deadline:
            if handle.process is not None and handle.process.poll() is not None:
                raise ServiceError(
                    f"replica {handle.index} exited with code "
                    f"{handle.process.returncode} before becoming ready"
                )
            if handle.ready_file.exists():
                payload = json.loads(handle.ready_file.read_text(encoding="utf-8"))
                handle.host = payload["host"]
                handle.port = int(payload["port"])
                return
            time.sleep(0.02)
        raise ServiceError(
            f"replica {handle.index} did not become ready within its deadline"
        )

    def terminate(self) -> None:
        """Stop every replica process (SIGTERM, then SIGKILL stragglers)."""
        for handle in self.replicas:
            if handle.alive:
                assert handle.process is not None
                handle.process.terminate()
        for handle in self.replicas:
            if handle.process is None:
                continue
            try:
                handle.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait(timeout=5.0)

    # ------------------------------------------------------------------
    # Addressing.
    # ------------------------------------------------------------------
    def endpoints(self) -> dict:
        """``{universe element: (host, port)}`` for the client library."""
        return {
            handle.server_id: (handle.host, handle.port) for handle in self.replicas
        }

    def to_cluster_file(self, path: str | Path) -> None:
        """Write the cluster description ``python -m repro loadgen`` consumes."""
        payload = {
            "spec": self.cluster.spec.to_dict(),
            "b": self.b,
            "replicas": [
                {
                    "index": handle.index,
                    "host": handle.host,
                    "port": handle.port,
                    "byzantine": handle.byzantine,
                    "pid": handle.process.pid if handle.process else None,
                }
                for handle in self.replicas
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")

    # ------------------------------------------------------------------
    # Fault injection (mirrors FaultScenario's crashed / slow / byzantine).
    # ------------------------------------------------------------------
    def kill(self, index: int) -> None:
        """Crash one replica (SIGKILL — no goodbye, like a real crash)."""
        handle = self.replicas[index]
        if handle.alive:
            assert handle.process is not None
            handle.process.kill()
            handle.process.wait(timeout=5.0)

    def restart(self, index: int, *, timeout: float = DEFAULT_READY_TIMEOUT) -> None:
        """Restart a killed replica.

        With ``ClusterSpec.data_root`` set the new process recovers its
        register from its per-replica :class:`~repro.storage.DurableStore`
        (write-ahead log + snapshot) and rejoins with its pre-crash state;
        without it, the replica rejoins with a fresh (initial) state and
        only the ``b+1`` vouch threshold protects readers from its stale
        answers.  A new process that does not become ready is killed
        before the error propagates.
        """
        handle = self.replicas[index]
        if handle.alive:
            raise ServiceError(f"replica {index} is still running")
        try:
            self._spawn(handle)
            self._await_ready(handle, time.monotonic() + timeout)
        except BaseException:
            self.kill(index)
            raise

    async def stall(self, index: int) -> None:
        """Freeze a replica's protocol replies (the *slow server* fault)."""
        handle = self.replicas[index]
        await call_endpoint(handle.host, handle.port, {"type": "STALL"})

    async def resume(self, index: int) -> None:
        handle = self.replicas[index]
        await call_endpoint(handle.host, handle.port, {"type": "RESUME"})

    async def status(self, index: int) -> dict:
        handle = self.replicas[index]
        return await call_endpoint(handle.host, handle.port, {"type": "STATUS"})

    async def metrics(self, index: int) -> dict:
        handle = self.replicas[index]
        return await call_endpoint(handle.host, handle.port, {"type": "METRICS"})

    async def discover_pair(self) -> ValueTimestampPair | None:
        """The cluster's b+1-vouched register state (see
        :func:`discover_initial_pair`); queries live replicas only."""
        return await discover_initial_pair(
            [
                {"host": handle.host, "port": handle.port}
                for handle in self.replicas
                if handle.alive
            ],
            b=self.b,
        )


def load_cluster_file(path: str | Path) -> tuple[SystemSpec, int, list[dict]]:
    """Parse a cluster file into ``(spec, b, replica descriptors)``.

    Every descriptor is checked: an integer ``index`` inside the spec's
    universe, a string ``host`` and an integer ``port``.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ServiceError(f"cannot read cluster file {path}: {exc}") from None
    try:
        spec = SystemSpec.from_dict(payload["spec"])
        b, replicas = int(payload["b"]), list(payload["replicas"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed cluster file {path}: {exc}") from None
    size = len(build(spec).universe)
    for descriptor in replicas:
        if not (
            isinstance(descriptor, dict)
            and type(descriptor.get("index")) is int
            and 0 <= descriptor["index"] < size
            and isinstance(descriptor.get("host"), str)
            and type(descriptor.get("port")) is int
        ):
            raise ServiceError(
                f"malformed cluster file {path}: replica {descriptor!r} needs an "
                f"integer index below {size}, a string host and an integer port"
            )
    return spec, b, replicas


async def discover_initial_pair(
    replica_endpoints: list,
    *,
    b: int,
    timeout: float = 5.0,
) -> ValueTimestampPair | None:
    """Recover the register state a cluster already holds, from the server side.

    Queries every replica's ``STATUS`` frame for its current ``(value,
    ts)`` pair and returns the highest-timestamp pair vouched for by at
    least ``b + 1`` replicas — the same masking rule a read uses, so up to
    ``b`` Byzantine or freshly-wiped replicas cannot fabricate or roll back
    the discovered state.  ``None`` when no pair reaches the vouch
    threshold (e.g. a cluster that never served a write).

    This replaces client-side ``initial_pair`` chaining across runs against
    a *durable* cluster: after a full-cluster restart the state lives in the
    replicas' write-ahead logs, not in any client's memory.  Unreachable
    replicas and frames without register fields are skipped — discovery
    degrades exactly like a read would.
    """
    pairs = []
    for descriptor in replica_endpoints:
        host, port = descriptor["host"], descriptor["port"]
        try:
            payload = await call_endpoint(host, port, {"type": "STATUS"}, timeout=timeout)
            pairs.append(wire.decode_pair(payload))
        except ServiceError:
            continue  # unreachable, or no well-formed register fields
    return vouched_pair(pairs, b)


# ----------------------------------------------------------------------
# Load generation.
# ----------------------------------------------------------------------
@dataclass
class ServiceRunResult:
    """Everything one live load-generation run produced."""

    system: QuorumSystem
    b: int
    seed: int
    operations: int
    clients: int
    duration: float
    strategy: Strategy
    records: list[OperationRecord]
    check: HistoryCheck
    per_server_load: dict
    per_server_attempted: dict
    timeouts: int
    replica_status: list = field(default_factory=list)
    replica_metrics: list = field(default_factory=list)
    #: What the run's checker assumed the register held at the start (the
    #: ``initial_pair`` handed to :func:`run_load`, chained or discovered).
    initial_pair: ValueTimestampPair | None = None

    @property
    def successful(self) -> list[OperationRecord]:
        return [record for record in self.records if record.success]

    @property
    def final_pair(self) -> ValueTimestampPair | None:
        """The highest-timestamp pair this run installed or observed.

        Feed it as ``initial_pair`` to a follow-up :func:`run_load` against
        the *same still-running* cluster, so the next run's checker knows
        what register state it inherits (otherwise reads of the previous
        run's value would look fabricated).  ``None`` when nothing
        succeeded.  Only exact when the run quiesced — a write that failed
        mid-install may still surface later, exactly as in the simulator.
        """
        pairs = [pair for record in self.successful if (pair := record.pair) is not None]
        return max(pairs, key=lambda pair: pair.timestamp, default=None)

    def report(self, *, scenario: str = "service", strategy_label: str = "default") -> dict:
        """A :class:`~repro.api.workloads.WorkloadReport`-shaped dict.

        ``engine`` is ``"service"`` and a ``"service"`` key carries what only
        a live run has: per-replica STATUS/METRICS frames, the full checker
        verdict and the client-side timeout count.
        """
        successful = self.successful
        try:
            registry_spec = spec_of(self.system).to_dict()
        except InvalidParameterError:  # pragma: no cover - non-registry systems
            registry_spec = None
        accounting = WorkloadResult(
            operations=self.operations,
            successful_reads=sum(1 for r in successful if r.kind == "read"),
            successful_writes=sum(1 for r in successful if r.kind == "write"),
            failed_operations=self.operations - len(successful),
            consistency_violations=self.check.fabricated_reads,
            stale_reads=self.check.stale_reads,
            empirical_load=max(self.per_server_load.values(), default=0.0),
            per_server_load=self.per_server_load,
        )
        report = assemble_report(
            accounting,
            self.check,
            engine="service",
            system=self.system.name,
            n=self.system.n,
            b=self.b,
            scenario=scenario,
            strategy=strategy_label,
            seed=self.seed,
            sampled=False,
            spec=registry_spec,
            duration=self.duration,
            timeouts=self.timeouts,
            **latency_summary([r.responded_at - r.invoked_at for r in successful], None),
        ).to_dict()
        report["service"] = {
            "clients": self.clients,
            "check": {"ok": self.check.ok, **asdict(self.check)},
            "replica_status": self.replica_status,
            "replica_metrics": self.replica_metrics,
            "initial_pair": None if self.initial_pair is None else self.initial_pair.to_json(),
        }
        return report


async def run_load(
    system: QuorumSystem,
    endpoints: dict,
    *,
    b: int,
    operations: int,
    clients: int = 16,
    write_fraction: float = 0.5,
    mode: str = "closed",
    trace: TraceScenario | None = None,
    rate: float = 0.0,
    policy: RetryPolicy | None = None,
    strategy: Strategy | str | None = None,
    seed: int = 0,
    replica_endpoints: list | None = None,
    initial_pair: ValueTimestampPair | None = None,
) -> ServiceRunResult:
    """Drive concurrent client coroutines against live replicas.

    ``mode="closed"`` splits ``operations`` across ``clients`` back-to-back
    loops (concurrency = the client count).  ``mode="open"`` replays a
    :class:`~repro.simulation.traces.TraceScenario` arrival schedule
    (default: a diurnal trace) compressed so the whole schedule spans
    ``operations / rate`` real seconds; each arrival is handed to the next
    free client, and a backlogged client runs its queue without pause —
    bounded open loop.  Every operation is recorded in one shared history;
    the returned result carries the checker verdict over it.
    """
    if operations < 1:
        raise ServiceError(f"operations must be >= 1, got {operations}")
    if clients < 1:
        raise ServiceError(f"clients must be >= 1, got {clients}")
    if mode not in ("closed", "open"):
        raise ServiceError(f"mode must be 'closed' or 'open', got {mode!r}")
    # initial_pair: what the register already holds (e.g. the final_pair of
    # a previous run against the same cluster); the checker treats it as
    # legitimately readable pre-existing state.
    check_inherited_pair(initial_pair, ServiceError)
    rng = ensure_rng(seed)
    history = HistoryRecorder(initial_pair)
    policy = policy if policy is not None else RetryPolicy(request_timeout=2.0)
    # Resolve the strategy up front (None -> uniform over the family) so the
    # clients sample exactly the distribution service_conformance bounds.
    resolved_strategy = (
        strategy if isinstance(strategy, Strategy) else resolve_strategy(system, strategy)
    )
    pool = [
        ServiceQuorumClient(
            client_id,
            system,
            endpoints,
            b=b,
            policy=policy,
            rng=ensure_rng(rng.integers(2**63)),
            strategy=resolved_strategy,
            history=history,
        )
        for client_id in range(clients)
    ]

    # Pre-draw every operation's kind (and, open-loop, its arrival offset)
    # from the single seeded stream, then assign operations round-robin.
    if mode == "open":
        schedule_trace = trace if trace is not None else TraceScenario(name="diurnal")
        arrivals = schedule_trace.arrival_schedule(
            operations, rng, write_fraction=write_fraction
        )
        span = max((t for t, _kind in arrivals), default=0.0)
        pace = 0.0 if rate <= 0.0 or span <= 0.0 else (operations / rate) / span
        plan = [(t * pace, kind) for t, kind in arrivals]
    else:
        kinds = rng.random(operations) < write_fraction
        plan = [(0.0, "write" if is_write else "read") for is_write in kinds]
    assignments: list[list[tuple[float, str]]] = [[] for _ in range(clients)]
    for position, item in enumerate(plan):
        assignments[position % clients].append(item)

    started = time.monotonic()

    async def drive(client: ServiceQuorumClient, work: list) -> None:
        value_counter = 0
        for offset, kind in work:
            if offset > 0.0:
                delay = started + offset - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
            if kind == "write":
                value_counter += 1
                await client.write((f"client-{client.client_id}", value_counter))
            else:
                await client.read()

    try:
        await asyncio.gather(
            *(drive(client, work) for client, work in zip(pool, assignments))
        )
    finally:
        for client in pool:
            await client.close()
    duration = time.monotonic() - started

    per_server_load, per_server_attempted = access_frequencies(pool, system.universe)

    replica_status: list = []
    replica_metrics: list = []
    if replica_endpoints:
        for descriptor in replica_endpoints:
            host, port = descriptor["host"], descriptor["port"]
            # Fetch both before recording either, so the two lists stay
            # aligned with ``replica_endpoints`` when only one call fails.
            try:
                status = await call_endpoint(host, port, {"type": "STATUS"})
                metrics = await call_endpoint(host, port, {"type": "METRICS"})
            except ServiceError:
                status = {"type": "STATUS_REPLY", "index": descriptor.get("index"), "ok": False}
                metrics = None
            replica_status.append(status)
            replica_metrics.append(metrics)

    return ServiceRunResult(
        system=system,
        b=b,
        seed=seed,
        operations=len(plan),
        clients=clients,
        duration=duration,
        strategy=resolved_strategy,
        records=list(history.records),
        check=history.check(),
        per_server_load=per_server_load,
        per_server_attempted=per_server_attempted,
        timeouts=sum(client.timeouts for client in pool),
        replica_status=replica_status,
        replica_metrics=replica_metrics,
        initial_pair=initial_pair,
    )


async def run_supervisor(
    cluster: ServiceCluster,
    *,
    cluster_file: str | Path | None = None,
) -> None:
    """Run a started cluster until SIGTERM/SIGINT, then tear it down.

    The ``python -m repro serve`` supervisor body: assumes
    ``cluster.start()`` already ran, publishes the cluster file, then parks
    on a stop event wired to the termination signals.
    """
    if cluster_file is not None:
        cluster.to_cluster_file(cluster_file)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
    try:
        await stop.wait()
    finally:
        cluster.terminate()
