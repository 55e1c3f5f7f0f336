"""repro — Byzantine masking quorum systems.

A reproduction of *The Load and Availability of Byzantine Quorum Systems*
(Malkhi, Reiter, Wool; PODC 1997 / SIAM J. Computing): the b-masking
quorum-system model, its load and availability measures and lower bounds,
quorum composition, the paper's four constructions (M-Grid, RT, boostFPP,
M-Path) and the two [MR98a] baselines, plus a replicated-register simulator
that runs the masking-quorum protocol over any of them.

Quickstart
----------
The spec-driven facade (:mod:`repro.api`) is the recommended entry point:
build constructions by name, compute measures through one dispatcher, run
workloads on either engine — also available from the shell as
``python -m repro`` (see ``docs/api.md``).

>>> from repro import build, measure, load_lower_bound
>>> system = build("mgrid", n=49, b=3)
>>> system.masking_bound() >= 3
True
>>> measure(system, "load").value <= 2 * load_lower_bound(system.n, 3)
True
"""

from repro.constructions import (
    BoostedFPP,
    TreeQuorumSystem,
    WheelQuorumSystem,
    CrumblingWall,
    FiniteProjectivePlane,
    MGrid,
    MPath,
    MaskingGrid,
    RecursiveThreshold,
    RegularGrid,
    ThresholdQuorumSystem,
    boost_masking,
    boosting_block,
    majority,
    masking_threshold,
)
from repro.core import (
    AvailabilityResult,
    BitsetEngine,
    ComposedQuorumSystem,
    ExplicitQuorumSystem,
    ImplicitQuorumSystem,
    LoadResult,
    MaskingReport,
    QuorumSystem,
    Strategy,
    Universe,
    analytic_failure_probability,
    analytic_load,
    compose,
    crash_probability_lower_bound,
    exact_failure_probability,
    exact_load,
    fair_load,
    load_lower_bound,
    load_of_strategy,
    load_optimality_ratio,
    masking_report,
    minimal_transversal,
    monte_carlo_failure_probability,
    resilience_upper_bound_from_load,
    self_compose,
    verify_masking,
)
from repro.exceptions import (
    ComputationError,
    ConstructionError,
    FieldError,
    InvalidParameterError,
    InvalidQuorumSystemError,
    MaskingViolationError,
    ReproError,
    SimulationError,
    StrategyError,
)

# isort: split
# The facade (imported last: it builds on constructions, core and
# simulation).  `repro.build` / `repro.measure` / `repro.run_experiment`
# are the recommended entry points; `repro.api` exposes the full surface.
from repro import api
from repro.api import (
    Budget,
    MeasureResult,
    SystemSpec,
    WorkloadReport,
    WorkloadSpec,
    available_constructions,
    build,
    measure,
    spec_of,
)
from repro.api import run as run_experiment

__version__ = "1.0.0"

__all__ = [
    "AvailabilityResult",
    "BitsetEngine",
    "BoostedFPP",
    "Budget",
    "MeasureResult",
    "SystemSpec",
    "WorkloadReport",
    "WorkloadSpec",
    "api",
    "available_constructions",
    "build",
    "measure",
    "run_experiment",
    "spec_of",
    "InvalidParameterError",
    "ComposedQuorumSystem",
    "ComputationError",
    "ConstructionError",
    "CrumblingWall",
    "ExplicitQuorumSystem",
    "FieldError",
    "FiniteProjectivePlane",
    "ImplicitQuorumSystem",
    "InvalidQuorumSystemError",
    "LoadResult",
    "MGrid",
    "MPath",
    "MaskingGrid",
    "MaskingReport",
    "MaskingViolationError",
    "QuorumSystem",
    "RecursiveThreshold",
    "RegularGrid",
    "ReproError",
    "SimulationError",
    "Strategy",
    "StrategyError",
    "ThresholdQuorumSystem",
    "TreeQuorumSystem",
    "Universe",
    "WheelQuorumSystem",
    "analytic_failure_probability",
    "analytic_load",
    "boost_masking",
    "boosting_block",
    "compose",
    "crash_probability_lower_bound",
    "exact_failure_probability",
    "exact_load",
    "fair_load",
    "load_lower_bound",
    "load_of_strategy",
    "load_optimality_ratio",
    "majority",
    "masking_report",
    "masking_threshold",
    "minimal_transversal",
    "monte_carlo_failure_probability",
    "resilience_upper_bound_from_load",
    "self_compose",
    "verify_masking",
    "__version__",
]
