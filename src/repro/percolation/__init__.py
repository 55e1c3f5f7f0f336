"""Site percolation on the triangulated grid (substrate for the M-Path system)."""

from repro.percolation.critical import (
    CriticalEstimate,
    estimate_critical_probability,
    fixed_point_of_reliability,
)
from repro.percolation.lattice import TriangularGrid
from repro.percolation.site import (
    CrossingEstimate,
    count_disjoint_crossings,
    count_witnessed_trials,
    estimate_crossing_probability,
    has_open_crossing,
    sample_open_vertices,
)

__all__ = [
    "CriticalEstimate",
    "CrossingEstimate",
    "TriangularGrid",
    "count_disjoint_crossings",
    "count_witnessed_trials",
    "estimate_critical_probability",
    "estimate_crossing_probability",
    "fixed_point_of_reliability",
    "has_open_crossing",
    "sample_open_vertices",
]
