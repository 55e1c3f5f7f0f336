"""Compare two result files of ``bench/run.py``.

    python bench/compare.py A.json B.json

prints one row per (workload, end-to-end metric) with both medians, their
quartiles, the change from A to B and a verdict:

``ok``          B is not worse than A by more than the metric's bound;
``regressed``   it is, and the runs resolve it;
``unresolved``  it is, but either side's quartile spread is wider than the
                bound and the two quartile ranges overlap;
``noisy``       it is, but the box's speed moved by more than 15 % during
                the workload on either side (``env.noisy``).

Layer counts that repeat exactly for a seed (``"exact": true`` in
``bench/details.json``) are compared for equality when both files used the
same seed.  Exit status 1 on any ``regressed`` or ``differs`` row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def verdict(metric: dict, a: dict, b: dict, noisy: bool) -> tuple[float, str]:
    change = (b["value"] - a["value"]) / a["value"]
    worse = change if metric["better"] == "lower" else -change
    if worse <= metric["bound"]:
        return change, "ok"
    if noisy:
        return change, "noisy"
    spread = max((side["q3"] - side["q1"]) / side["value"] for side in (a, b))
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    return change, "unresolved" if spread > metric["bound"] and overlap else "regressed"


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    details = json.loads((BENCH / "details.json").read_text(encoding="utf-8"))
    first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    layers = details["per_layer"]
    exact = {name: entry["on"] for name, entry in layers.items() if entry.get("exact")}
    bad = 0
    print(
        f"{'workload':18} {'metric':26} {'A':>12} {'A q1..q3':>25} {'B':>12} {'B q1..q3':>25} "
        f"{'change':>8}  verdict"
    )
    for workload in contract["workloads"]:
        a, b = (side["workloads"].get(workload["name"]) for side in (first, second))
        if not a or not b:
            continue
        noisy = a["env"]["noisy"] or b["env"]["noisy"]
        for side, label in ((a, "A"), (b, "B")):
            if not side["correct"]:
                print(f"{workload['name']:18} a correctness gate failed in {label}")
                bad += 1
        for metric in contract["end_to_end"]:
            left, right = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            change, word = verdict(metric, left, right, noisy)
            bad += word == "regressed"
            print(
                f"{workload['name']:18} {metric['name']:26} {left['value']:12.5g} "
                f"{left['q1']:12.5g}..{left['q3']:<11.5g} {right['value']:12.5g} "
                f"{right['q1']:12.5g}..{right['q3']:<11.5g} {change:+8.1%}  {word}"
            )
        if first["seed"] != second["seed"] or not a.get("per_layer") or not b.get("per_layer"):
            continue
        for name, used_on in exact.items():
            if workload["name"] not in used_on:
                continue
            left, right = a["per_layer"][name]["value"], b["per_layer"][name]["value"]
            word = "same" if left == right else "differs"
            bad += word == "differs"
            print(
                f"{workload['name']:18} {name:26} {left:12.5g} {'':25} {right:12.5g} {'':25} "
                f"{'':8}  {word}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
