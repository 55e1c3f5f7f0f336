"""Benchmarks for the M-Path construction (Section 7).

Reproduces Proposition 7.2 (optimal load) and Proposition 7.3 (crash
probability decaying for every p < 1/2), backed by the percolation substrate:
the estimated critical point of the triangulated lattice sits near 1/2, and
the Monte-Carlo Fp (a search for k disjoint open crossings per direction)
shrinks with the grid while M-Grid's — same load, same masking family —
climbs to one.
The last benchmark is the strategy ablation called out in DESIGN.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import format_table

from repro import MGrid, MPath, Strategy, load_lower_bound
from repro.percolation import estimate_critical_probability


def test_proposition_7_2_load_sweep(benchmark):
    """M-Path load across grid sizes, against the 2 sqrt((2b+1)/n) form and the bound."""
    cases = [(7, 3), (9, 4), (16, 7), (24, 11), (32, 7)]

    def evaluate():
        rows = []
        for side, b in cases:
            system = MPath(side, b)
            paper_form = 2 * np.sqrt(2 * b + 1) / side
            rows.append((side, b, system.load(), paper_form, load_lower_bound(system.n, b)))
        return rows

    rows = benchmark(evaluate)
    for side, b, load, paper_form, bound in rows:
        assert load <= 1.15 * paper_form
        assert load <= 2.1 * bound
        assert load >= bound - 1e-12

    print("\nM-Path load vs 2 sqrt((2b+1)/n) (Proposition 7.2) and the lower bound:")
    print(format_table(
        ["side", "b", "L", "2 sqrt((2b+1)/n)", "sqrt((2b+1)/n)"],
        [[s, b, f"{l:.3f}", f"{p:.3f}", f"{lb:.3f}"] for s, b, l, p, lb in rows],
    ))


def test_percolation_threshold(benchmark, rng):
    """The site-percolation critical point of the triangulated lattice is near 1/2."""
    estimate = benchmark.pedantic(
        estimate_critical_probability,
        kwargs={"side": 12, "trials_per_point": 120, "iterations": 7, "rng": rng},
        rounds=1,
        iterations=1,
    )
    assert 0.35 < estimate.critical_probability < 0.65
    print(f"\nEstimated site-percolation threshold on a 12x12 triangulated grid: "
          f"{estimate.critical_probability:.3f} (theory: 0.5)")


def test_proposition_7_3_availability(benchmark, rng):
    """Fp(M-Path) shrinks with n for p < 1/2, while M-Grid's climbs (the paper's contrast)."""
    p = 0.3
    sides = (5, 9, 13)

    def evaluate():
        rows = []
        for side in sides:
            mpath = MPath(side, 1)
            mgrid = MGrid(side, 1)
            rows.append(
                (
                    side,
                    mpath.crash_probability(p, trials=120, rng=rng),
                    mgrid.crash_probability(p, trials=4000, rng=rng),
                )
            )
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    mpath_values = [value for _, value, _ in rows]
    mgrid_values = [value for _, _, value in rows]
    assert mpath_values[-1] <= mpath_values[0]
    assert mgrid_values[-1] >= mgrid_values[0]
    assert mpath_values[-1] < mgrid_values[-1]

    print(f"\nM-Path vs M-Grid crash probability as the grid grows (p = {p}):")
    print(format_table(
        ["side", "Fp(M-Path)", "Fp(M-Grid)"],
        [[s, f"{a:.3f}", f"{b:.3f}"] for s, a, b in rows],
    ))


def test_analytic_bound_vs_monte_carlo(benchmark, rng):
    """The Theorem B.1/B.3 analytic bound dominates the Monte-Carlo estimate for small p."""
    cases = [(16, 2, 0.05), (24, 2, 0.05), (32, 7, 0.125)]

    def evaluate():
        rows = []
        for side, b, p in cases:
            system = MPath(side, b)
            bound = system.crash_probability_upper_bound(p)
            estimate = system.crash_probability(p, trials=60, rng=rng)
            rows.append((side, b, p, estimate, bound))
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    for side, b, p, estimate, bound in rows:
        assert estimate <= bound + 0.05

    print("\nM-Path availability: Monte-Carlo percolation vs the analytic bound:")
    print(format_table(
        ["side", "b", "p", "Fp (monte-carlo)", "analytic bound"],
        [[s, b, p, f"{e:.4f}", f"{bd:.2e}"] for s, b, p, e, bd in rows],
    ))


def test_ablation_straight_line_vs_bent_path_strategy(benchmark, rng):
    """Ablation (DESIGN.md): the straight-line strategy already achieves the optimal load,
    and bent paths only matter for availability, not for load."""
    system = MPath(9, 4)

    def evaluate():
        subsystem = system.straight_line_subsystem()
        strategy = Strategy.uniform_over_system(subsystem)
        induced = strategy.induced_system_load(system.universe)
        # Availability difference: with 12 crashed vertices scattered on the
        # grid, straight-line quorums frequently die while bent paths survive.
        survived_bent = 0
        survived_straight = 0
        trials = 40
        for _ in range(trials):
            crashed = set()
            while len(crashed) < 12:
                crashed.add((int(rng.integers(1, 10)), int(rng.integers(1, 10))))
            if system.survives(crashed):
                survived_bent += 1
            alive = [q for q in subsystem.quorums() if not q & crashed]
            if alive:
                survived_straight += 1
        return induced, survived_bent / trials, survived_straight / trials

    induced, bent_rate, straight_rate = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    # Load: the uniform straight-line strategy matches the analytic load.
    assert induced == pytest.approx(system.load(), abs=1e-9)
    # Availability: counting bent paths can only help.
    assert bent_rate >= straight_rate

    print("\nAblation: straight-line strategy vs full (bent-path) quorum family:")
    print(format_table(
        ["quantity", "straight lines", "bent paths"],
        [
            ["induced load", f"{induced:.3f}", f"{system.load():.3f} (same strategy)"],
            ["survival rate (12 crashes)", f"{straight_rate:.2f}", f"{bent_rate:.2f}"],
        ],
    ))
