"""Evaluation-level analysis: Table 2, the Section 8 comparison, trade-offs,
and the empirical-vs-analytic closing of the loop (measured ``L_w`` and
availability against the LP load and exact ``Fp``)."""

from repro.analysis.asymptotics import (
    ASYMPTOTIC_FAMILIES,
    AsymptoticPoint,
    ExponentialDecayFit,
    FamilyAsymptotics,
    PowerLawFit,
    family_system,
    fit_exponential_decay,
    fit_power_law,
    section45_comparison,
    sweep,
)
from repro.analysis.comparison import SystemProfile, profile_system, section8_comparison
from repro.analysis.conformance import (
    ConformanceCheck,
    ConformanceReport,
    adversarial_conformance,
    availability_conformance,
    load_conformance,
    masking_conformance,
    percolation_conformance,
    reconfig_conformance,
    recovery_conformance,
    restricted_induced_loads,
    service_conformance,
    worst_case_induced_load,
)
from repro.analysis.empirical import (
    EmpiricalAvailabilityComparison,
    EmpiricalLoadComparison,
    empirical_availability_comparison,
    empirical_load_comparison,
)
from repro.analysis.selector import Recommendation, candidate_constructions, recommend_construction
from repro.analysis.tables import (
    PAPER_FAMILIES,
    TABLE2_SYSTEMS,
    Table2Row,
    availability_trend,
    table2,
)
from repro.analysis.tradeoffs import TradeoffPoint, tradeoff_point, verify_tradeoff

__all__ = [
    "ASYMPTOTIC_FAMILIES",
    "AsymptoticPoint",
    "ConformanceCheck",
    "ConformanceReport",
    "EmpiricalAvailabilityComparison",
    "EmpiricalLoadComparison",
    "ExponentialDecayFit",
    "FamilyAsymptotics",
    "PAPER_FAMILIES",
    "PowerLawFit",
    "Recommendation",
    "TABLE2_SYSTEMS",
    "SystemProfile",
    "Table2Row",
    "TradeoffPoint",
    "adversarial_conformance",
    "availability_conformance",
    "availability_trend",
    "candidate_constructions",
    "family_system",
    "fit_exponential_decay",
    "fit_power_law",
    "empirical_availability_comparison",
    "empirical_load_comparison",
    "load_conformance",
    "masking_conformance",
    "percolation_conformance",
    "profile_system",
    "reconfig_conformance",
    "recommend_construction",
    "recovery_conformance",
    "restricted_induced_loads",
    "section45_comparison",
    "section8_comparison",
    "service_conformance",
    "sweep",
    "table2",
    "tradeoff_point",
    "verify_tradeoff",
    "worst_case_induced_load",
]
