"""The repository's benchmark: one command, five workloads.

    python bench/run.py [--seed N] [--workload NAME] [--no-trace] [--out FILE]

runs every workload twice in a child process each — once untraced for the
end-to-end metrics, once with ``bench/trace.py`` active for the per-layer
ones — checks that the outputs are correct, prints every metric by name with
its unit, and writes ``bench/out/result.json`` plus one
``bench/out/trace-<workload>.jsonl`` per workload.  It exits non-zero when a
correctness gate fails.

A single measurement is

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

whose last line of output is one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``bench/README.md`` explains the
workloads, the metrics and how they are expected to interact.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SOURCE = ROOT / "src"

#: Default ``--seed``: generates operation kinds and per-block seeds.
DEFAULT_SEED = 20240614


# ----------------------------------------------------------------------
# One measurement (child process).
# ----------------------------------------------------------------------
def print_run(result: dict) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
        f"blocks={result['blocks']}  attempted={result['attempted']}  failed={result['failed']}"
        f"{'  NOISY' if result['env']['noisy'] else ''}"
    )
    for gate in result["gates"]:
        detail = f"  ({gate['detail']})" if gate["detail"] else ""
        print(f"  gate {'ok  ' if gate['ok'] else 'FAIL'}  {gate['name']}{detail}")
    print(
        f"  {'metric':34} {'value':>12} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}"
    )
    for name, entry in result["end_to_end"].items():
        print(
            f"  {name:34} {entry['value']:12.6g} {entry['unit']:6} {entry['median']:12.6g} "
            f"{entry['q1']:12.6g} {entry['q3']:12.6g} {entry['n']:4d}"
        )
    for name, entry in result["per_layer"].items():
        print(f"  {name:34} {entry['value']:12.6g} {entry['unit']:6}")


def run_single(args: argparse.Namespace, harness) -> int:
    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_run(result)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    if not result["correct"]:
        print("bench: a correctness gate failed", file=sys.stderr)
        return 1
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in chosen.items()
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# The whole benchmark (parent process).
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace, contract: dict) -> int:
    """Each workload in its own child, so peak memory is that workload's own."""
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    OUT.mkdir(exist_ok=True)
    merged = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    status = 0
    for name in names:
        entry: dict = {}
        for trace in (0,) if args.no_trace else (0, 1):
            detail = OUT / f"run-{name}-trace{trace}.json"
            detail.unlink(missing_ok=True)
            command = [
                sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(detail),
            ] + (["--smoke"] if args.smoke else [])
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # On success the last line is the machine-readable summary: print the table only.
            ok = completed.returncode == 0
            print(completed.stdout.rsplit("\n", 2)[0] if ok else completed.stdout)
            status = status or completed.returncode
            if not detail.exists():
                continue
            result = json.loads(detail.read_text(encoding="utf-8"))
            if not entry:
                entry = result
            else:
                entry["per_layer"] = result["per_layer"]
                entry["gates"] += result["gates"]
                entry["correct"] = entry["correct"] and result["correct"]
                entry["env"]["noisy"] = entry["env"]["noisy"] or result["env"]["noisy"]
            detail.unlink()
        merged["workloads"][name] = entry
    target = Path(args.out) if args.out else OUT / "result.json"
    target.write_text(json.dumps(merged, indent=1), encoding="utf-8")
    print(f"bench: wrote {target}" + ("" if status == 0 else "  (FAILED)"))
    return status


def main(argv: list[str] | None = None) -> int:
    if not (SOURCE / "repro").is_dir():
        print(f"bench: no program to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import harness

    contract = harness.load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="measure once, in this process")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--smoke", action="store_true", help="tiny blocks; measures nothing")
    parser.add_argument("--out", help="where to write the result JSON")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace measures one workload: give --workload")
        return run_single(args, harness)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
