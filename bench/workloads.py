"""The five benchmark workloads.

Each workload does a **fixed amount of work per block** (so two commits do
identical work in a block) in a closed loop, checks its own outputs, and can
say what its layers cost once a traced block and a few isolated probes have
run.  ``bench/README.md`` records why each exists and which layer it
bypasses.
"""

from __future__ import annotations

import asyncio
import math
import os
import statistics
import trace as tracing
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import probes
import stats

from repro import api
from repro.analysis.conformance import service_conformance
from repro.exceptions import ComputationError
from repro.service import ClusterSpec, ServiceCluster, run_load


@dataclass
class Block:
    """What one timed block produced.

    ``wall`` is the denominator of the block's rate; ``latencies`` are
    per-operation milliseconds by kind (``op`` always; ``read``/``write``
    where the workload distinguishes them); ``facts`` are the counts and
    verdicts the correctness gates and exact-repeat comparisons read.
    """

    ops: int
    failed: int
    wall: float
    cpu: float
    latencies: dict[str, list[float]]
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str = ""


def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


class Workload:
    """Set-up, one timed block, tear-down, gates and layer numbers."""

    name = ""

    def __init__(self, seed: int, workdir: Path, *, smoke: bool = False, trace: bool = False):
        """``trace`` says the run is a traced one: a workload may size its blocks for it."""
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def pids(self) -> list[int]:
        return []

    def block(self, seed: int) -> Block:
        raise NotImplementedError

    def gates(self, blocks: list[Block]) -> list[Gate]:
        raise NotImplementedError

    def layers(self, blocks: list[Block], traced: Block, spans: list, by_name: dict) -> dict:
        """Layer numbers of the traced block; ``by_name`` is ``trace.totals_by_name``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Live service.
# ----------------------------------------------------------------------
class ServiceWorkload(Workload):
    """Two closed-loop clients against five subprocess replicas, threshold(5, 1).

    Once the replicas are up, they and the benchmark process are confined to
    one processor.  Six processes waking each other across two virtual
    processors measure how promptly the host runs both: in ten alternating
    samples of 100 blocks the free-running cluster read 1676-2126 ops/s (the
    middle half 12 % apart) and the confined one 1202-1321 (5 % apart), and
    between two sets of runs 90 minutes apart the free-running medians fell by
    23 % and 26 % while every single-process workload held to 1-6 %.
    """

    clients = 2
    durable = False
    byzantine = 0
    write_fraction = 0.5
    block_ops = 200
    #: A traced run's blocks: enough operations for a 99th percentile and for
    #: the median operation's breakdown to rest on more than a score of them.
    traced_block_ops = 1000
    warmup_ops = 1000
    #: Writes that give a read-only workload a register state to read.
    setup_writes = 20
    snapshot_every = 1024

    def __init__(self, seed: int, workdir: Path, *, smoke: bool = False, trace: bool = False):
        super().__init__(seed, workdir, smoke=smoke, trace=trace)
        if trace:
            self.block_ops = self.traced_block_ops
        if smoke:
            self.block_ops, self.warmup_ops = 200, 100
        self.cluster: ServiceCluster | None = None
        self.processors = os.sched_getaffinity(0)
        self.generation = 0
        self.spawn_s = 0.0
        self.pair = None
        # Replica STATUS/METRICS frames before and after the latest load run.
        self.before: tuple[list, list] = ([], [])
        self.after: tuple[list, list] = ([], [])
        self.at_setup: tuple[list, list] = ([], [])
        #: The latest load run's ServiceRunResult (the layer probes replay it).
        self.result = None
        self.last_data_root: Path | None = None

    def setup(self) -> None:
        self.generation += 1
        root = self.workdir / f"{self.name}-{self.generation}"
        data_root = root / "data" if self.durable else None
        spec = ClusterSpec(
            spec=api.SystemSpec("threshold", {"n": 5, "b": 1}),
            b=1,
            byzantine=self.byzantine,
            seed=self.seed,
            data_root=None if data_root is None else str(data_root),
            fsync="always",
            snapshot_every=self.snapshot_every,
        )
        self.cluster = ServiceCluster(spec, root / "run")
        self.last_data_root = data_root
        self.pair = None
        started = perf_counter()
        try:
            self.cluster.start()
        except BaseException:
            self.teardown()
            raise
        self.spawn_s = perf_counter() - started
        stats.pin([os.getpid(), *self.pids()], {min(self.processors)})
        if self.write_fraction == 0.0:
            self._load(self.setup_writes, 1.0, self.seed)
        self._load(self.warmup_ops, self.write_fraction, self.seed + 1)
        self.at_setup = self.after

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.terminate()
            self.cluster = None
        # The next cluster is spawned on every processor again.
        stats.pin([os.getpid()], self.processors)

    def pids(self) -> list[int]:
        if self.cluster is None:
            return []
        return [handle.process.pid for handle in self.cluster.replicas if handle.alive]

    def _load(self, operations: int, write_fraction: float, seed: int):
        cluster = self.cluster
        replica_endpoints = [
            {"host": handle.host, "port": handle.port, "index": handle.index}
            for handle in cluster.replicas
        ]
        self.before = self.after
        result = asyncio.run(
            run_load(
                cluster.system,
                cluster.endpoints(),
                b=cluster.b,
                operations=operations,
                clients=self.clients,
                write_fraction=write_fraction,
                seed=seed,
                replica_endpoints=replica_endpoints,
                initial_pair=self.pair,
            )
        )
        # Chain the register state: the next run's checker must know what
        # this one left behind, or its reads would look fabricated.
        self.pair = result.final_pair or self.pair
        self.after = (result.replica_status, result.replica_metrics)
        self.result = result
        return result

    def block(self, seed: int) -> Block:
        pids = self.pids()
        cpu_before = stats.cpu_seconds(pids)
        result = self._load(self.block_ops, self.write_fraction, seed)
        cpu = stats.cpu_seconds(pids) - cpu_before
        started = perf_counter()
        conformance = service_conformance(result)
        conformance_ms = (perf_counter() - started) * 1e3
        latencies: dict[str, list[float]] = {"op": [], "read": [], "write": []}
        attempts = 0
        for record in result.records:
            attempts += record.attempts
            if record.success:
                elapsed = (record.responded_at - record.invoked_at) * 1e3
                latencies["op"].append(elapsed)
                latencies[record.kind].append(elapsed)
        if self.write_fraction == 0.0:
            latencies = {"op": latencies["op"]}
        return Block(
            ops=result.operations,
            failed=result.operations - len(result.successful),
            wall=result.duration,
            cpu=cpu,
            latencies=latencies,
            facts={
                "check_ok": result.check.ok,
                "fabricated_reads": result.check.fabricated_reads,
                "stale_reads": result.check.stale_reads,
                "conformance_failures": [check.metric for check in conformance.failures],
                "conformance_ms": conformance_ms,
                "timeouts": result.timeouts,
                "probes": attempts,
            },
        )

    def gates(self, blocks: list[Block]) -> list[Gate]:
        gates = [
            Gate("history check ok", all(b.facts["check_ok"] for b in blocks)),
            Gate(
                "zero fabricated/stale reads",
                all(b.facts["fabricated_reads"] + b.facts["stale_reads"] == 0 for b in blocks),
            ),
            Gate(
                "service_conformance passes",
                not any(b.facts["conformance_failures"] for b in blocks),
                ", ".join(name for b in blocks for name in b.facts["conformance_failures"]),
            ),
            Gate(
                "no failed operation",
                all(b.failed == 0 for b in blocks),
                f"{sum(b.failed for b in blocks)} failed",
            ),
        ]
        if self.durable:
            discovered = asyncio.run(self.cluster.discover_pair())
            gates.append(
                Gate(
                    "discover_pair() >= the run's final pair",
                    discovered is not None and discovered.timestamp >= self.pair.timestamp,
                    f"discovered {discovered.timestamp}, final {self.pair.timestamp}",
                )
            )
        return gates

    # -- layer numbers --------------------------------------------------
    def _breakdown(self, spans: list, quorum_size: int) -> dict[str, float]:
        """Partition each traced operation into client / wire / waiting time.

        Within one operation's span, time covered by ``write_frame`` or
        ``decode_frame`` is wire time, the rest of what ``read_frame`` covers
        is waiting on replicas (and on the event loop), and what no frame
        span covers is the client's own — so the three sum to the latency.
        """
        children = tracing.children_of(spans)
        own, wire_time, waited, latency, fanout = [], [], [], [], []
        for index, span in enumerate(spans):
            if span[tracing.PARENT] >= 0 or span[tracing.LAYER] != "service":
                continue
            busy, inside, ends = [], [], []
            for child in children.get(index, ()):
                frame = spans[child]
                if not frame[tracing.NAME].startswith("wire."):
                    continue
                inside.append((frame[tracing.START], frame[tracing.END]))
                if frame[tracing.NAME] == "wire.write_frame":
                    busy.append(inside[-1])
                else:
                    ends.append(frame[tracing.END])
                    busy += [
                        (spans[c][tracing.START], spans[c][tracing.END])
                        for c in children.get(child, ())
                    ]
            duration = span[tracing.END] - span[tracing.START]
            covered, wire_part = tracing.covered(inside), tracing.covered(busy)
            latency.append(duration)
            own.append(duration - covered)
            wire_time.append(wire_part)
            waited.append(covered - wire_part)
            ends.sort()
            for start in range(0, len(ends) - quorum_size + 1, quorum_size):
                fanout.append(ends[start + quorum_size - 1] - ends[start])
        # The median operation's parts: averaged over the operations between
        # the 45th and 55th latency percentile, so they sum to the median.
        order = sorted(range(len(latency)), key=latency.__getitem__)
        band = order[int(0.45 * len(order)) : int(0.55 * len(order)) + 1]
        parts = {
            "service.client_self_us_per_op": statistics.fmean(own[i] for i in band) * 1e6,
            "service.wire_us_per_op": statistics.fmean(wire_time[i] for i in band) * 1e6,
            "service.replica_wait_us_per_op": statistics.fmean(waited[i] for i in band) * 1e6,
        }
        return {
            **parts,
            "service.fanout_wait_us": _median_us(fanout),
            "trace_coverage_frac": sum(parts.values()) / _median_us(latency),
        }

    def layers(self, blocks: list[Block], traced: Block, spans: list, by_name: dict) -> dict:
        result = self.result
        ops = traced.ops
        statuses_before, metrics_before = self.before
        statuses_after, metrics_after = self.after

        def storage_delta(key: str) -> float:
            return sum(
                after["storage"].get(key, 0) - before["storage"].get(key, 0)
                for before, after in zip(statuses_before, statuses_after)
            )

        frames = sum(
            sum(after["operations"].values()) - sum(before["operations"].values())
            for before, after in zip(metrics_before, metrics_after)
        )
        handler = [
            m["latency_seconds"]["p50"] for m in metrics_after if m and m["latency_seconds"]["p50"]
        ]
        # Frames of client operations only: the STATUS/METRICS exchanges that
        # close a load run are traced too, as roots of their own.
        connections, codec_bytes = set(), 0
        for span in spans:
            if not spans[span[tracing.OP]][tracing.NAME].startswith("ServiceQuorumClient"):
                continue
            if span[tracing.NAME] == "wire.write_frame":
                connections.add(span[tracing.COUNT])
            elif span[tracing.NAME] in ("wire.encode_frame", "wire.decode_frame"):
                codec_bytes += span[tracing.COUNT]
        ordered = sorted(traced.latencies["op"])
        values = {
            "service.frames_per_op": frames / ops,
            "service.bytes_per_op": codec_bytes / ops,
            "service.replica_handler_p50_us": _median_us(handler),
            "service.timeouts": float(traced.facts["timeouts"]),
            "service.retries_per_op": (traced.facts["probes"] - ops) / ops,
            "service.connections": float(len(connections)),
            "service.cluster_spawn_s": self.spawn_s,
            "service.op_p90_ms": stats.percentile(ordered, 0.90),
            "service.op_p99_ms": stats.percentile(ordered, 0.99),
            "core.sample_index_us": _median_us(tracing.durations(spans, "Strategy.sample_index")),
            "core.load_gap": abs(
                max(result.per_server_load.values()) - api.measure(result.system, "load").value
            ),
            "analysis.conformance_ms": traced.facts["conformance_ms"],
            **self._breakdown(spans, self.cluster.system.min_quorum_size()),
        }
        builds = []
        for _ in range(5):
            started = perf_counter()
            api.build(self.cluster.cluster.spec)
            builds.append(perf_counter() - started)
        values["api.build_ms"] = statistics.median(builds) * 1e3
        requests = probes.protocol_requests(result.records)
        values["simulation.state_machine_us"], replies = probes.state_machine(requests)
        values["service.wire_encode_us"], values["service.wire_decode_us"] = probes.wire_codec(
            requests, replies
        )
        handle = self.cluster.replicas[0]
        values["service.replica_rtt_us"] = asyncio.run(probes.replica_rtt(handle.host, handle.port))
        if self.durable:
            journalled = storage_delta("wal_last_seq")
            compacted = [
                sum(s["storage"]["wal_last_seq"] - s["storage"]["wal_records"] for s in statuses)
                for statuses in (self.at_setup[0], statuses_after)
            ]
            log_sizes = [
                s["storage"]["wal_bytes"] / s["storage"]["wal_records"]
                for s in statuses_after
                if s["storage"]["wal_records"]
            ]
            values["storage.fsyncs_per_write"] = storage_delta("sync_count") / journalled
            values["storage.wal_bytes_per_write"] = (
                statistics.median(log_sizes) if log_sizes else 0.0
            )
            # Every compaction drops snapshot_every records from the log.
            values["storage.compactions"] = (compacted[1] - compacted[0]) / self.snapshot_every
            pairs = [r.attempted_pair for r in result.records if r.kind == "write" and r.success]
            values.update(probes.storage(self.last_data_root, pairs, fsync="always"))
            # Recovery is a property of a stopped replica: measure it last.
            self.teardown()
            values["storage.recovery_ms"] = probes.recovery_ms(
                self.last_data_root / "replica-0",
                fsync="always",
                snapshot_every=self.snapshot_every,
            )
        return values


class SvcDurableMixed(ServiceWorkload):
    name = "svc_durable_mixed"
    durable = True


class SvcMemRead(ServiceWorkload):
    name = "svc_mem_read"
    byzantine = 1
    write_fraction = 0.0


# ----------------------------------------------------------------------
# Simulators.
# ----------------------------------------------------------------------
class SimulatorWorkload(Workload):
    """``api.run`` on mgrid(49, 3), one call per block."""

    engine = ""
    scenario = ""
    clients = 4
    block_ops = 0
    smoke_ops = 0
    #: Facts that must be identical whenever a block is re-run with its seed.
    repeatable = ("events_processed", "empirical_load", "operations")

    def spec(self, operations: int, seed: int) -> api.WorkloadSpec:
        return api.WorkloadSpec(
            "mgrid",
            params={"n": 49, "b": 3},
            scenario=self.scenario,
            clients=self.clients,
            operations=operations,
            seed=seed,
        )

    def setup(self) -> None:
        operations = self.smoke_ops if self.smoke else self.block_ops
        self.operations = operations
        api.run(self.spec(operations, self.seed), engine=self.engine)

    def block(self, seed: int) -> Block:
        cpu_before = stats.cpu_seconds([])
        started = perf_counter()
        report = api.run(self.spec(self.operations, seed), engine=self.engine)
        wall = perf_counter() - started
        cpu = stats.cpu_seconds([]) - cpu_before
        return Block(
            ops=report.operations,
            failed=report.failed_operations,
            wall=wall,
            cpu=cpu,
            latencies={},
            facts={
                "operations": report.operations,
                "events_processed": report.events_processed,
                "empirical_load": report.empirical_load,
                "consistent": report.consistent,
                "violations": report.consistency_violations,
                "stale_reads": report.stale_reads,
                "seed": seed,
            },
        )

    def gates(self, blocks: list[Block]) -> list[Gate]:
        gates = [
            Gate("consistent", all(b.facts["consistent"] for b in blocks)),
            Gate(
                "zero failed/stale operations",
                all(b.failed + b.facts["stale_reads"] + b.facts["violations"] == 0 for b in blocks),
                f"{sum(b.failed for b in blocks)} failed",
            ),
        ]
        first: dict[int, Block] = {}
        reruns = 0
        same = True
        for current in blocks:
            earlier = first.setdefault(current.facts["seed"], current)
            if earlier is not current:
                reruns += 1
                same &= all(earlier.facts[key] == current.facts[key] for key in self.repeatable)
        gates.append(
            Gate(
                "a block re-run with its seed repeats exactly",
                reruns > 0 and same,
                f"{reruns} re-run(s)",
            )
        )
        return gates

    def layers(self, blocks: list[Block], traced: Block, spans: list, by_name: dict) -> dict:
        load = api.measure("mgrid", "load", n=49, b=3).value
        return {
            "api.run_overhead_us": by_name["workloads.run"].self_total * 1e6,
            "core.load_gap": abs(traced.facts["empirical_load"] - load),
        }


class SimEvents(SimulatorWorkload):
    name = "sim_events"
    engine = "event"
    scenario = "slow-servers"
    clients = 8
    #: About one full garbage collection (40 ms) falls in a block of this
    #: size; at half the size it struck every second block, and the good
    #: decile of blocks left it out altogether.
    block_ops = 640
    smoke_ops = 400

    def layers(self, blocks: list[Block], traced: Block, spans: list, by_name: dict) -> dict:
        values = super().layers(blocks, traced, spans, by_name)
        engine = by_name["runner.run_event_workload"]
        events = traced.facts["events_processed"]
        values.update(
            {
                "simulation.events_per_s": statistics.median(
                    b.facts["events_processed"] / b.wall for b in blocks
                ),
                "simulation.events_per_op": events / traced.ops,
                "simulation.messages_per_op": engine.count / traced.ops,
                "simulation.history_check_ms": by_name["HistoryRecorder.check"].total * 1e3,
                "constructions.sample_quorum_us": _median_us(
                    tracing.durations(spans, "MGrid.sample_quorum")
                ),
            }
        )
        return values


class SimVectorised(SimulatorWorkload):
    name = "sim_vectorised"
    engine = "vectorized"
    scenario = "byzantine"
    block_ops = 250_000
    smoke_ops = 20_000

    def layers(self, blocks: list[Block], traced: Block, spans: list, by_name: dict) -> dict:
        values = super().layers(blocks, traced, spans, by_name)
        values["simulation.vectorised_ns_per_op"] = (
            by_name["runner.run_workload"].total * 1e9 / traced.ops
        )
        return values


# ----------------------------------------------------------------------
# Measures.
# ----------------------------------------------------------------------
SWEEP_SYSTEMS: tuple[tuple[str, dict], ...] = (
    ("mgrid", {"n": 49, "b": 3}),
    ("mgrid", {"n": 16, "b": 1}),
    ("grid", {"n": 49}),
    ("threshold", {"n": 13, "b": 3}),
    ("mpath", {"n": 49, "b": 1}),
    ("fpp", {"q": 3}),
    ("boostfpp", {"q": 3, "b": 1}),
    ("rt", {"k": 4, "l": 3, "depth": 2}),
    ("majority", {"n": 11}),
)

#: The one call of the sweep that must refuse: M-Path cannot enumerate its family.
EXPECTED_REFUSAL = ("mpath", "load", "exact")

FP_P = 0.1


class MeasureSweep(Workload):
    """One pass = the fixed list of ``api.measure`` calls behind the paper's tables."""

    name = "measure_sweep"
    trials = 400
    warmup_trials = 200

    def __init__(self, seed: int, workdir: Path, *, smoke: bool = False, trace: bool = False):
        super().__init__(seed, workdir, smoke=smoke, trace=trace)
        if smoke:
            self.trials, self.warmup_trials = 200, 40
        self.calls: list[tuple[str, dict, str, str, float | None]] = []
        for construction, params in SWEEP_SYSTEMS:
            small = api.build(construction, **params).n <= 22
            self.calls.append((construction, params, "load", "exact", None))
            self.calls.append((construction, params, "load", "auto", None))
            if small:
                self.calls.append((construction, params, "fp", "exact", FP_P))
            self.calls.append((construction, params, "fp", "sampled", FP_P))
            for name in ("masking", "transversal", "intersection"):
                self.calls.append((construction, params, name, "auto", None))

    def _pass(self, trials: int, seed: int) -> tuple[dict, list[float], int]:
        budget = api.Budget(trials=trials, seed=seed)
        outcomes: dict[tuple, object] = {}
        elapsed: list[float] = []
        failed = 0
        for construction, params, name, method, p in self.calls:
            key = (construction, tuple(params.values()), name, method)
            started = perf_counter()
            try:
                outcomes[key] = api.measure(
                    api.SystemSpec(construction, params), name, method=method, p=p, budget=budget
                )
            except ComputationError as exc:
                outcomes[key] = exc
                failed += (construction, name, method) != EXPECTED_REFUSAL
            elapsed.append((perf_counter() - started) * 1e3)
        return outcomes, elapsed, failed

    def setup(self) -> None:
        # Warm the caches a first caller pays for (imports, GF tables, LP set-up).
        self._pass(self.warmup_trials, self.seed)

    def block(self, seed: int) -> Block:
        cpu_before = stats.cpu_seconds([])
        started = perf_counter()
        outcomes, elapsed, failed = self._pass(self.trials, self.seed)
        wall = perf_counter() - started
        cpu = stats.cpu_seconds([]) - cpu_before
        return Block(
            ops=len(self.calls),
            failed=failed,
            wall=wall,
            cpu=cpu,
            latencies={"op": elapsed},
            facts={
                "values": [
                    None if isinstance(outcome, Exception) else outcome.value
                    for outcome in outcomes.values()
                ],
                "outcomes": outcomes,
            },
        )

    def gates(self, blocks: list[Block]) -> list[Gate]:
        outcomes = blocks[0].facts["outcomes"]
        gates = [
            Gate("no unexpected refusal", all(b.failed == 0 for b in blocks)),
            Gate(
                "every pass returns identical values",
                all(b.facts["values"] == blocks[0].facts["values"] for b in blocks),
            ),
        ]
        refused = [key for key, outcome in outcomes.items() if isinstance(outcome, Exception)]
        gates.append(
            Gate(
                "load/exact on mpath(49,1) refuses",
                [(key[0], key[2], key[3]) for key in refused] == [EXPECTED_REFUSAL],
                str(refused),
            )
        )
        worst_load, worst_fp = 0.0, 0.0
        for key, outcome in outcomes.items():
            construction, params, name, method = key
            if isinstance(outcome, Exception):
                continue
            if name == "load" and method == "exact":
                analytic = outcomes[(construction, params, "load", "auto")]
                worst_load = max(worst_load, abs(outcome.value - analytic.value))
            if name == "fp" and method == "exact":
                sampled = outcomes[(construction, params, "fp", "sampled")]
                # error_bound is a 95 % half-width (and 0 when no trial
                # failed), so one seed in twenty would trip it; hold the
                # estimate to six exact standard errors instead.
                sigma = math.sqrt(outcome.value * (1.0 - outcome.value) / self.trials)
                tolerance = 6.0 * sigma + 2.0 / self.trials
                worst_fp = max(worst_fp, abs(sampled.value - outcome.value) / tolerance)
        mgrid = outcomes[("mgrid", (49, 3), "load", "exact")]
        gates += [
            Gate("LP load equals analytic load to 1e-9", worst_load <= 1e-9, f"{worst_load:.1e}"),
            Gate("L(mgrid(49,3)) = 24/49", abs(mgrid.value - 24 / 49) <= 1e-9, f"{mgrid.value:f}"),
            Gate("sampled Fp within tolerance of exact", worst_fp <= 1.0, f"{worst_fp:.2f} of it"),
        ]
        return gates

    def layers(self, blocks: list[Block], traced: Block, spans: list, by_name: dict) -> dict:
        own = tracing.self_times(spans)
        dispatch = [t for span, t in zip(spans, own) if span[tracing.NAME] == "measures.measure"]
        samplers = [
            totals
            for name, totals in by_name.items()
            if name.endswith((".crash_probability", ".monte_carlo_failure_probability"))
        ]
        maxflow = by_name["disjoint_paths.max_vertex_disjoint_paths"]
        return {
            "api.measure_dispatch_us": _median_us(dispatch),
            "core.lp_solve_ms": _median_us(tracing.durations(spans, "load.exact_load")) / 1e3,
            "core.fp_exact_ms": _median_us(
                tracing.durations(spans, "availability.exact_failure_probability")
            )
            / 1e3,
            "constructions.mc_trials_per_s": sum(s.count for s in samplers)
            / sum(s.total for s in samplers),
            "graphs.maxflow_calls": float(maxflow.calls),
            "graphs.maxflow_us_per_call": maxflow.total / maxflow.calls * 1e6,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SvcDurableMixed, SvcMemRead, SimEvents, SimVectorised, MeasureSweep)
}
