"""Graph algorithms used by the percolation substrate and the M-Path system.

:func:`max_vertex_disjoint_paths` is the percolation sampler's kernel, a
bounded augmenting-path search that builds no network; :class:`FlowNetwork`
is the generic Dinic max-flow solver its tests use as the reference.
"""

from repro.graphs.disjoint_paths import max_vertex_disjoint_paths
from repro.graphs.maxflow import FlowNetwork

__all__ = ["FlowNetwork", "max_vertex_disjoint_paths"]
