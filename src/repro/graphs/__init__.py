"""Graph algorithms used by the percolation substrate and the M-Path system."""

from repro.graphs.disjoint_paths import max_vertex_disjoint_paths
from repro.graphs.maxflow import FlowNetwork

__all__ = ["FlowNetwork", "max_vertex_disjoint_paths"]
