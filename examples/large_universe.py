"""Walkthrough: the implicit large-universe engine at n = 10^4.

Every other example materialises its quorum family; this one never does.
It builds the Figure 1 construction at production scale (M-Grid over a
100 x 100 grid), reads the paper's measures from closed forms, compares
the load against the Corollary 4.2 lower bound, sweeps the Section 4-5
asymptotics across decades, and runs a crash-scenario workload on a
sampled deployment — all without enumerating a single quorum family.

Run with:  PYTHONPATH=src python examples/large_universe.py
"""

from __future__ import annotations

import math

import numpy as np

from repro import (
    ImplicitQuorumSystem,
    MGrid,
    analytic_failure_probability,
    analytic_load,
    load_lower_bound,
)
from repro.analysis.asymptotics import section45_comparison
from repro.simulation import FaultScenario, run_workload


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    banner("Closed-form measures at n = 10^4 (M-Grid(100x100, b=3))")
    base = MGrid(100, 3)
    print(f"  servers           n   = {base.n}")
    print(f"  quorum family         = {base.num_quorums():,} quorums (never built)")
    print(f"  quorum size       c   = {base.min_quorum_size()}")
    print(f"  min intersection  IS  = {base.min_intersection_size()}  (>= 2b+1 = 7)")
    print(f"  min transversal   MT  = {base.min_transversal_size()}  (f = {base.min_transversal_size() - 1})")
    load = analytic_load(base).load
    bound = load_lower_bound(base.n, 3)
    print(f"  load              L   = {load:.4f}  (Corollary 4.2 bound {bound:.4f}, ratio {load / bound:.2f})")
    for p in (0.001, 0.01, 0.05):
        fp = analytic_failure_probability(base, p)
        print(f"  availability      Fp({p}) = {fp.value:.3e}   [{fp.method}]")

    banner("Section 4-5 comparison across n = 64 .. 10^4 (closed forms)")
    comparison = section45_comparison((64, 256, 1024, 4096, 10000), p=0.1, b=1)
    print(f"  {'family':10s} {'load ~ n^alpha':>15s} {'r^2':>8s}   Fp trend")
    for name, family in comparison.items():
        fit = family.load_fit
        print(
            f"  {name:10s} {fit.exponent:>+15.3f} {fit.r_squared:>8.4f}   "
            f"{family.availability_trend}"
        )
    print("  (paper: load exponent -1/2 for Grid/M-Grid/M-Path, "
          f"{math.log(3, 4) - 1:.4f} for RT(4,3), 0 for Threshold)")

    banner("Sampled workload at n = 4096 under crashes (implicit deployment)")
    side = 64
    implicit = ImplicitQuorumSystem(MGrid(side, 0), num_samples=32 * side, seed=42)
    strategy = implicit.sampled_optimal_strategy()
    induced = strategy.induced_system_load(implicit.universe)
    print(f"  sampled-LP strategy over {len(strategy)} quorums, induced load {induced:.4f}"
          f"  (closed-form L = {analytic_load(implicit).load:.4f})")
    crash_rng = np.random.default_rng(1)
    crashed = frozenset(
        (int(row), int(column)) for row, column in crash_rng.integers(side, size=(4, 2))
    )
    result = run_workload(
        implicit,
        b=0,
        num_operations=8 * side * side,
        scenario=FaultScenario(crashed=crashed),
        strategy=strategy,
        rng=np.random.default_rng(5),
    )
    reference = 1.0 / math.sqrt(implicit.n)
    print(f"  {result.operations} operations, {len(crashed)} servers crashed: "
          f"availability {result.availability:.4f}")
    print(f"  measured load {result.empirical_load:.5f} = "
          f"{result.empirical_load / reference:.2f} x 1/sqrt(n)  (within the 3x acceptance bound)")
    assert result.availability == 1.0
    assert result.is_consistent
    assert result.empirical_load <= 3.0 * reference


if __name__ == "__main__":
    main()
