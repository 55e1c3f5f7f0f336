"""Core quorum-system model: universes, quorum systems, measures, and bounds.

This package implements Sections 3 and 4 of the paper: the quorum-system
abstraction, the load and availability measures, the lower bounds on both,
and quorum composition.
"""

from repro.core.analytic import (
    analytic_failure_probability,
    analytic_load,
    crumbling_wall_failure_probability,
    rowcol_survival_probability,
)
from repro.core.availability import (
    AvailabilityResult,
    exact_failure_probability,
    inclusion_exclusion_failure_probability,
    is_condorcet_sequence,
    monte_carlo_failure_probability,
)
from repro.core.bitset import BitsetEngine, mask_of, mask_to_frozenset, masks_of
from repro.core.bounds import (
    crash_probability_lower_bound,
    crash_probability_lower_bound_for_system,
    load_lower_bound,
    load_lower_bound_for_system,
    load_optimality_ratio,
    optimal_quorum_size,
    resilience_upper_bound_from_load,
)
from repro.core.composition import ComposedQuorumSystem, compose, self_compose
from repro.core.load import LoadResult, exact_load, fair_load, load_of_strategy
from repro.core.masking import MaskingReport, masking_report, verify_masking
from repro.core.membership import (
    Epoch,
    Membership,
    MembershipEvent,
    ReboundQuorumSystem,
    plan_events,
    rebind_system,
    severed_between,
)
from repro.core.quorum_system import (
    ExplicitQuorumSystem,
    ImplicitQuorumSystem,
    QuorumSystem,
    unwrap,
)
from repro.core.strategy import Strategy
from repro.core.transversal import (
    greedy_transversal,
    is_transversal,
    minimal_transversal,
    minimal_transversal_size,
)
from repro.core.universe import Universe

__all__ = [
    "AvailabilityResult",
    "BitsetEngine",
    "ComposedQuorumSystem",
    "Epoch",
    "ExplicitQuorumSystem",
    "ImplicitQuorumSystem",
    "LoadResult",
    "MaskingReport",
    "Membership",
    "MembershipEvent",
    "QuorumSystem",
    "ReboundQuorumSystem",
    "Strategy",
    "Universe",
    "analytic_failure_probability",
    "analytic_load",
    "compose",
    "crash_probability_lower_bound",
    "crumbling_wall_failure_probability",
    "crash_probability_lower_bound_for_system",
    "exact_failure_probability",
    "exact_load",
    "fair_load",
    "greedy_transversal",
    "inclusion_exclusion_failure_probability",
    "is_condorcet_sequence",
    "is_transversal",
    "load_lower_bound",
    "load_lower_bound_for_system",
    "load_of_strategy",
    "load_optimality_ratio",
    "mask_of",
    "mask_to_frozenset",
    "masking_report",
    "masks_of",
    "minimal_transversal",
    "minimal_transversal_size",
    "monte_carlo_failure_probability",
    "optimal_quorum_size",
    "plan_events",
    "rebind_system",
    "resilience_upper_bound_from_load",
    "rowcol_survival_probability",
    "self_compose",
    "severed_between",
    "unwrap",
    "verify_masking",
]
