"""``repro.api`` — the library's single public front door.

One spec-driven surface over everything the reproduction can do:

* **registry** (:mod:`repro.api.registry`) — every construction under a
  string name with a typed parameter spec; ``build("mgrid", n=49, b=3)``,
  round-trippable :class:`SystemSpec`;
* **measures** (:mod:`repro.api.measures`) — ``measure(system, "load",
  method="auto")`` dispatching between the exact, analytic and sampled
  paths under an explicit :class:`Budget`, returning a
  :class:`MeasureResult` that records which path ran;
* **workloads** (:mod:`repro.api.workloads`) — one :class:`WorkloadSpec`
  accepted by ``run(spec, engine="auto")`` over both workload engines,
  normalised into a JSON-stable :class:`WorkloadReport`;
* **scenarios** (:mod:`repro.api.scenarios`) — the fault-schedule
  catalogue by name;
* **membership** (:mod:`repro.api.membership`) — :class:`MembershipSpec`,
  the JSON-stable description of a membership-reconfiguration timeline
  (epochs of join/sever events), runnable via ``WorkloadSpec(membership=...)``
  or the named ``reconfig-*`` catalogue scenarios;
* **cli** (:mod:`repro.api.cli`) — ``python -m repro
  measure|run|table|compare|list [--json]``.

The older entry points (``exact_load``, ``analytic_*``, ``run_workload``,
``run_event_workload``, direct construction imports) remain supported;
they are what the facade dispatches to.  See ``docs/api.md`` for the tour.

>>> from repro import api
>>> api.measure("grid", "load", n=25).value
0.36
>>> api.run(api.WorkloadSpec(system="grid", params={"n": 25},
...                          operations=40, seed=3)).consistent
True
"""

from repro.api.membership import MembershipSpec, ReconfigScenario
from repro.api.measures import (
    Budget,
    MeasureResult,
    available_measures,
    measure,
)
from repro.api.registry import (
    ConstructionEntry,
    ParamSpec,
    SystemSpec,
    available_constructions,
    build,
    get_entry,
    register,
    shape_at,
    spec_of,
)
from repro.api.scenarios import available_scenarios, build_scenario, is_timed
from repro.api.workloads import WorkloadReport, WorkloadSpec, run

__all__ = [
    "Budget",
    "ConstructionEntry",
    "MeasureResult",
    "MembershipSpec",
    "ParamSpec",
    "ReconfigScenario",
    "SystemSpec",
    "WorkloadReport",
    "WorkloadSpec",
    "available_constructions",
    "available_measures",
    "available_scenarios",
    "build",
    "build_scenario",
    "get_entry",
    "is_timed",
    "measure",
    "register",
    "run",
    "shape_at",
    "spec_of",
]
