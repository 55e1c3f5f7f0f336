"""Run-to-run spread of every end-to-end metric, as the acceptance check takes it.

    python bench/spread.py [--runs 10] [--workload NAME] [--out bench/spread.json]

runs each workload ``--runs`` times, each with another ``--seed``, and reports
for each end-to-end metric the distance between the first and third quartile
of its values as a share of their median, beside the metric's bound.  A spread
above a third of its bound (``setup_s`` excepted) means the benchmark cannot
resolve a regression of that size: measure more per run before trusting it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    parser.add_argument("--out", default=str(BENCH / "spread.json"))
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    report: dict = {}
    wide = 0
    for name in names:
        values: dict[str, list[float]] = {metric: [] for metric in bounds}
        for run in range(args.runs):
            command = [
                sys.executable, str(BENCH / "run.py"), "--workload", name, "--trace", "0",
                "--seed", str(args.seed + run), "--seconds", str(contract["run_seconds"]),
            ]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if completed.returncode != 0:
                print(completed.stdout)
                return completed.returncode
            metrics = json.loads(completed.stdout.rstrip().rsplit("\n", 1)[-1])["metrics"]
            for metric in bounds:
                values[metric].append(metrics[metric]["value"])
        report[name] = {}
        for metric, samples in values.items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            steady = metric == "setup_s" or spread <= bounds[metric] / 3
            wide += not steady
            report[name][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[metric], "samples": samples,
            }
            print(
                f"{name:18} {metric:14} median {median:12.6g}  spread {spread:6.3f}  "
                f"bound {bounds[metric]:.2f}  {'ok' if steady else 'WIDE'}"
            )
    Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
