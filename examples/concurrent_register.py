#!/usr/bin/env python3
"""Concurrent clients on the replicated register, over the event-driven core.

A blocking register runs one operation at a time, so nothing
timing-dependent is observable.  This example runs the [MR98a] masking-quorum
protocol on the event-driven core with real concurrency: eight resumable
clients interleave reads and writes through a discrete-event scheduler with
per-link latency, and the completed history — with genuinely overlapping
operation intervals — is checked against the register semantics the
``2b + 1`` intersection guarantees:

* interleaved writers always produce strictly increasing, unique timestamps;
* a read concurrent with a write returns the old or the new value — never a
  Byzantine fabrication — under *every* adversarial behaviour at ``b``
  colluders;
* beyond the bound (``2b + 1`` colluders forging read replies) the history
  checker catches the fabricated reads, showing the bound is tight;
* timing faults (slow servers, flaky links, a mid-run crash/recover window)
  move the latency percentiles without ever breaking safety.

Run with::

    python examples/concurrent_register.py
"""

from __future__ import annotations

import numpy as np

from repro import ThresholdQuorumSystem
from repro.simulation import (
    BYZANTINE_BEHAVIOURS,
    FaultInjector,
    FaultScenario,
    LatencyModel,
    TimingScenario,
    crash_recover_scenario,
    flaky_links_scenario,
    run_event_workload,
    slow_server_scenario,
)

NUM_CLIENTS = 8
OPS_PER_CLIENT = 15
MASKING_B = 2


def describe(label: str, result) -> None:
    check = result.check
    verdict = "consistent" if check.ok else f"VIOLATIONS: {check.violations[:2]}"
    print(
        f"  {label:<24} avail={result.availability:.3f}  "
        f"p50={result.latency_p50:5.2f}  p99={result.latency_p99:6.2f}  "
        f"overlapping-pairs={check.concurrent_pairs:4d}  {verdict}"
    )


def main() -> None:
    rng = np.random.default_rng(2026)
    system = ThresholdQuorumSystem(9, 7)
    latency = LatencyModel.uniform(1.0, 1.0)
    print(
        f"Replicated register over {system.name}: {NUM_CLIENTS} interleaved "
        f"clients x {OPS_PER_CLIENT} ops, masking b = {MASKING_B}"
    )

    print("\n--- fault-free, concurrent ---")
    result = run_event_workload(
        system, b=MASKING_B, num_clients=NUM_CLIENTS,
        operations_per_client=OPS_PER_CLIENT,
        scenario=TimingScenario.static(FaultScenario.fault_free(), latency=latency),
        retry_unvouched_reads=True, rng=rng,
    )
    describe("fault-free", result)

    print(f"\n--- every Byzantine behaviour at b = {MASKING_B} colluders ---")
    injector = FaultInjector(system.universe, rng)
    byzantine = injector.exact(num_byzantine=MASKING_B)
    for behaviour in sorted(BYZANTINE_BEHAVIOURS):
        result = run_event_workload(
            system, b=MASKING_B, num_clients=NUM_CLIENTS,
            operations_per_client=OPS_PER_CLIENT,
            scenario=TimingScenario.static(
                byzantine, latency=latency, byzantine_behaviour=behaviour
            ),
            retry_unvouched_reads=True, rng=rng,
        )
        assert result.check.ok, (behaviour, result.check.violations)
        describe(behaviour, result)

    print("\n--- timing faults (safety holds, latency pays) ---")
    slow = slow_server_scenario(
        system.universe, {0: 6.0, 1: 6.0}, latency=latency
    )
    describe(
        "slow-servers",
        run_event_workload(
            system, b=MASKING_B, num_clients=NUM_CLIENTS,
            operations_per_client=OPS_PER_CLIENT, scenario=slow,
            retry_unvouched_reads=True, rng=rng,
        ),
    )
    describe(
        "flaky-links",
        run_event_workload(
            system, b=MASKING_B, num_clients=NUM_CLIENTS,
            operations_per_client=OPS_PER_CLIENT,
            scenario=flaky_links_scenario(loss=0.05, duplication=0.03, latency=latency),
            retry_unvouched_reads=True, rng=rng,
        ),
    )
    describe(
        "crash-recover",
        run_event_workload(
            system, b=MASKING_B, num_clients=NUM_CLIENTS,
            operations_per_client=OPS_PER_CLIENT,
            scenario=crash_recover_scenario(
                system.universe, [0, 1], down_at=15.0, up_at=50.0, latency=latency
            ),
            retry_unvouched_reads=True, rng=rng,
        ),
    )

    print(f"\n--- what goes wrong beyond the bound: {2 * MASKING_B + 1} colluders ---")
    overload = injector.exact(num_byzantine=2 * MASKING_B + 1)
    result = run_event_workload(
        system, b=MASKING_B, num_clients=NUM_CLIENTS,
        operations_per_client=OPS_PER_CLIENT,
        scenario=TimingScenario.static(
            overload, latency=latency, byzantine_behaviour="forge-on-read"
        ),
        rng=rng, allow_overload=True,
    )
    describe("forge-on-read x5", result)
    assert not result.check.ok
    print(
        f"  the checker caught {result.check.fabricated_reads} fabricated reads "
        "(the adversary out-votes the honest intersection)"
    )


if __name__ == "__main__":
    main()
