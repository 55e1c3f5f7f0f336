#!/usr/bin/env python3
"""Boosting: turn any benign-fault quorum system into a Byzantine-masking one.

Section 6's composition technique replaces every server of a *regular* quorum
system with a ``(3b+1)``-of-``(4b+1)`` threshold block; by Theorem 4.7 the
result masks ``b`` Byzantine failures whatever the input system was, while
multiplying the input's load by only ``~3/4``.

This example boosts three very different regular systems — a majority, a
Maekawa grid, and a crumbling wall — and verifies the Theorem 4.7 algebra
(parameters multiply, load multiplies, crash probabilities compose) against
direct computation on the composed system.

Run with::

    python examples/boosting.py
"""

from __future__ import annotations

from repro import (
    CrumblingWall,
    RegularGrid,
    boost_masking,
    boosting_block,
    exact_load,
    majority,
    verify_masking,
)
from repro.api import measure


def demonstrate(regular, b: int, p: float = 0.1) -> None:
    """Boost one regular system and report the before/after measures."""
    boosted = boost_masking(regular, b)
    block = boosting_block(b)

    print(f"{regular.name}  ->  {boosted.name}")
    print(f"  universe: {regular.n} -> {boosted.n} servers "
          f"(x{block.n} per server)")
    print(f"  IS      : {regular.min_intersection_size()} -> "
          f"{boosted.min_intersection_size()}  (needs >= {2 * b + 1})")
    print(f"  MT      : {regular.min_transversal_size()} -> "
          f"{boosted.min_transversal_size()}  (needs >= {b + 1})")

    if boosted.n <= 30:
        # Small enough to check Definition 3.5 literally, pair by pair.
        verify_masking(boosted.to_explicit(), b)
    assert boosted.is_b_masking(b)
    print(f"  {b}-masking: verified")

    regular_load = exact_load(regular).load
    boosted_load = boosted.load()
    print(f"  load    : {regular_load:.3f} -> {boosted_load:.3f} "
          f"(block load {block.load():.3f}, product "
          f"{regular_load * block.load():.3f})")

    regular_fp = measure(regular, "fp", p=p).value
    boosted_fp = boosted.crash_probability(p)
    print(f"  Fp({p}) : {regular_fp:.4f} -> {boosted_fp:.4f} "
          f"(composition of the two crash functions)")
    print()


def main() -> None:
    b = 1
    print("Boosting regular quorum systems into "
          f"{b}-masking systems (Thresh {3 * b + 1}-of-{4 * b + 1} blocks)\n")

    demonstrate(majority(5), b)
    demonstrate(RegularGrid(3), b)
    demonstrate(CrumblingWall([1, 2, 3]), b)


if __name__ == "__main__":
    main()
