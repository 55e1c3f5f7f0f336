#!/usr/bin/env python3
"""A Byzantine-fault-tolerant replicated register over a masking quorum system.

This is the scenario the paper's introduction motivates: a shared variable
replicated over ``n`` servers, where clients read and write through quorums
and up to ``b`` servers may behave arbitrarily.  The example deploys the
masking-quorum protocol of [MR98a] over an M-Grid, injects ``b`` colluding
Byzantine servers that fabricate a huge timestamp (the strongest attack on
the read rule) plus a handful of crashed servers, and shows that

* every read still returns the last written value (consistency), and
* the busiest server's empirical access frequency matches the analytic load.

The runs use the vectorised engine (``run_workload``), whose one input is a
:class:`~repro.simulation.scenarios.WorkloadScenario`: the fault states plus
the *vouching model* of the liars — ``"fabricate"`` (all colluders vouch for
one forged pair, the strongest attack on the read rule) or ``"equivocate"``
(two conflicting camps).  A bare ``FaultScenario`` is the one-phase
``"fabricate"`` case.  Replica-level lies such as ``forge-on-read`` belong
to the message-level event engine (see ``concurrent_register.py``).

Run with::

    python examples/replicated_register.py
"""

from __future__ import annotations

import numpy as np

from repro import MGrid
from repro.simulation import FaultInjector, WorkloadScenario, run_workload


def main() -> None:
    rng = np.random.default_rng(2024)

    side, b = 7, 3
    system = MGrid(side, b)
    print(f"Deploying a replicated register over {system.name} "
          f"({system.n} servers, masking b = {b})")

    injector = FaultInjector(system.universe, rng)

    print("\n--- fault-free run ---")
    clean = run_workload(system, b=b, num_operations=300, rng=rng)
    print(f"availability           : {clean.availability:.3f}")
    print(f"consistency violations : {clean.consistency_violations}")
    print(f"busiest server load    : {clean.empirical_load:.3f} "
          f"(analytic L = {system.load():.3f})")

    print(f"\n--- {b} colluding Byzantine servers (fabricated timestamps) ---")
    byzantine_only = injector.exact(num_byzantine=b, num_crashed=0)
    attacked = run_workload(
        system, b=b, num_operations=300, scenario=byzantine_only, rng=rng
    )
    print(f"availability           : {attacked.availability:.3f}")
    print(f"consistency violations : {attacked.consistency_violations} "
          "(masking quorums filter the forged pairs)")

    print(f"\n--- {b} Byzantine + 4 crashed servers (hybrid fault model) ---")
    hybrid = injector.exact(num_byzantine=b, num_crashed=4)
    degraded = run_workload(system, b=b, num_operations=300, scenario=hybrid, rng=rng)
    print(f"availability           : {degraded.availability:.3f} "
          "(reads/writes retry around hit quorums)")
    print(f"consistency violations : {degraded.consistency_violations}")

    print("\n--- what goes wrong beyond the masking bound ---")
    # Many more colluders than the deployment masks, all vouching for one
    # forged pair: it now reaches the b+1 vouching threshold and reads get
    # corrupted.
    overload = WorkloadScenario.from_fault_scenario(
        injector.exact(num_byzantine=4 * b, num_crashed=0),
        name="overload",
        byzantine_model="fabricate",
    )
    broken = run_workload(
        system,
        b=b,
        num_operations=300,
        scenario=overload,
        rng=rng,
        allow_overload=True,
    )
    print(f"Byzantine servers       : {4 * b} (>> b = {b})")
    print(f"consistency violations : {broken.consistency_violations} "
          "(the adversary out-votes the honest intersection)")


if __name__ == "__main__":
    main()
