"""One measurement of one workload: set-up legs, timed blocks, traced blocks, gates.

Imported by ``bench/run.py`` once ``src`` is on the path; see there for the
command line and ``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import trace as tracing
from pathlib import Path
from time import perf_counter

import stats
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: Set-ups (legs) per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
LAYERS = ("api", "core", "constructions", "graphs", "simulation", "service")


def load_contract() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end(blocks: list, setups: list[float], peak_rss: float, metrics: dict) -> dict:
    """The end-to-end metrics of one run, each summarised over its blocks.

    Every metric is computed per block.  A workload that cannot split a
    metric repeats the coarser one it refines: read/write latency falls back
    to operation latency, and a workload whose operations are not timed one
    by one reports the block's wall time per operation for both.
    """
    def over(name: str, values: list[float]) -> dict:
        return stats.summary(values, metrics[name]["unit"], metrics[name]["better"])

    def median_latency(name: str, kind: str) -> dict:
        if not blocks[0].latencies:
            return over(name, [b.wall * 1e3 / b.ops for b in blocks])
        if kind not in blocks[0].latencies:
            kind = "op"
        return over(name, [statistics.median(b.latencies[kind]) for b in blocks])

    result = {
        "ops_per_s": over("ops_per_s", [b.ops / b.wall for b in blocks]),
        "read_p50_ms": median_latency("read_p50_ms", "read"),
        "write_p50_ms": median_latency("write_p50_ms", "write"),
        "sweep_s": over("sweep_s", [b.wall for b in blocks]),
        "cpu_ms_per_op": over("cpu_ms_per_op", [b.cpu * 1e3 / b.ops for b in blocks]),
        "peak_rss_mb": over("peak_rss_mb", [peak_rss]),
    }
    # Set-up is the median of its repeats, as the contract asks.
    setup = over("setup_s", setups)
    setup["value"] = setup["median"]
    return {"setup_s": setup, **result}


def shared_layers(
    blocks: list, traced: list, spans: list, by_name: dict, by_layer: dict, traced_wall: float
) -> dict[str, float]:
    """Layer numbers every workload derives the same way from its trace."""
    values = {f"{layer}.self_ms": by_layer.get(layer, 0.0) * 1e3 for layer in LAYERS}
    # Traced and untraced blocks alternated on identical inputs.  The fastest
    # of each side are compared: the box's noise is one-sided, and adjacent
    # blocks are up to a factor of two apart when a neighbour is busy.
    values["trace_overhead_frac"] = min(b.wall for b in traced) / min(b.wall for b in blocks) - 1.0
    # Self times sum to what the root spans cover; the rest of the traced
    # wall is the benchmark's own loop.
    values["trace_coverage_frac"] = sum(by_layer.values()) / traced_wall
    draws = by_name.get("Strategy.sample_many")
    if draws and draws.count:
        values["core.strategy_sample_ns"] = draws.total * 1e9 / draws.count
    queries = [
        by_name[name]
        for name in (
            "BitsetEngine.quorums_alive",
            "BitsetEngine.alive_quorum_exists",
            "BitsetEngine.intersection_counts",
        )
        if name in by_name
    ]
    rows = sum(q.count for q in queries)
    if rows:
        values["core.bitset_ns_per_op"] = sum(q.total for q in queries) * 1e9 / rows
    builds = tracing.durations(spans, "registry.build")
    if builds:
        values["api.build_ms"] = statistics.median(builds) * 1e3
    values["constructions.enumerate_ms"] = 1e3 * sum(
        by_name[name].self_total
        for name in ("QuorumSystem.quorum_masks", "QuorumSystem.quorums")
        if name in by_name
    )
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload once; return the detailed result."""
    contract = load_contract()
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    environment = stats.environment()
    calib_before = stats.calibrate()
    workload = WORKLOADS[name](seed, workdir, smoke=smoke, trace=trace)
    per_layer: dict[str, float] = {}
    try:
        # An untraced run is split into legs: each sets the workload up
        # afresh (their median is setup_s) and measures fixed-size blocks for
        # its share of the time, so the blocks sample several instances of
        # the program.  The closing block re-runs the first block's inputs,
        # which checks exact repetition for free.  A traced run has one leg
        # of one block and measures in the loop below.
        legs = 1 if trace or smoke else SETUP_REPEATS
        budget = 0.0 if trace else seconds / legs
        seeds = random.Random(seed)
        first_seed = seeds.getrandbits(32)
        setups, blocks = [], []
        for leg in range(legs):
            if leg:
                workload.teardown()
            started = perf_counter()
            workload.setup()
            setups.append(perf_counter() - started)
            closing = leg == legs - 1
            started = perf_counter()
            blocks.append(workload.block(seeds.getrandbits(32) if leg else first_seed))
            one_block = perf_counter() - started
            while not smoke and perf_counter() - started + (1 + closing) * one_block <= budget:
                blocks.append(workload.block(seeds.getrandbits(32)))
        if not trace:
            blocks.append(workload.block(first_seed))

        # Traced and untraced blocks alternate, so that both sides see the
        # same phases of the box.  All of them repeat the first block's
        # inputs: both sides do identical work, and the repeats are the
        # exact-repetition check of a traced run.  The last traced block's
        # spans are kept, and it is the latest load the replicas saw when the
        # layers are read.  Garbage is collected before every block of the
        # loop: installing the tracer allocates enough to bring a full
        # collection (30-40 ms here) forward into every traced block and out
        # of every untraced one, which read as 27 % overhead on sim_events.
        traced: list = []
        if trace:
            tracer = tracing.Tracer()
            started = perf_counter()
            while True:
                tracer.spans.clear()
                gc.collect()
                with tracer:
                    began = perf_counter()
                    traced.append(workload.block(first_seed))
                    traced_wall = perf_counter() - began
                pair = (perf_counter() - started) / len(traced)
                if smoke or perf_counter() - started + pair > seconds:
                    break
                gc.collect()
                blocks.append(workload.block(first_seed))
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{name}.jsonl")
        gates = workload.gates(blocks + traced)
        peak_rss = stats.peak_rss_mb(workload.pids())
        if trace:
            by_name, by_layer = tracing.totals_by_name(tracer.spans)
            per_layer = shared_layers(blocks, traced, tracer.spans, by_name, by_layer, traced_wall)
            per_layer.update(workload.layers(blocks, traced[-1], tracer.spans, by_name))
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    calib_after = stats.calibrate()
    per_layer["env.calib_ms"] = calib_after

    unknown = sorted(set(per_layer) - {m["name"] for m in contract["per_layer"]})
    if unknown:
        raise SystemExit(f"layer metrics missing from BENCHMARK.json: {unknown}")
    attempted = sum(b.ops for b in blocks)
    failed = sum(b.failed for b in blocks)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": all(gate.ok for gate in gates),
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "blocks": len(blocks),
        "gates": [{"name": g.name, "ok": g.ok, "detail": g.detail} for g in gates],
        "end_to_end": end_to_end(blocks, setups, peak_rss, metrics),
        # A layer a workload bypasses costs it nothing: report 0 there.
        "per_layer": {
            m["name"]: {"value": float(per_layer.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in contract["per_layer"]
        }
        if trace
        else {},
        "env": {
            **environment,
            "calib_ms_before": calib_before,
            "calib_ms_after": calib_after,
            "noisy": abs(calib_after - calib_before) / calib_before > stats.NOISE_LIMIT,
        },
    }
