"""Dinic's maximum-flow algorithm on integer-capacity directed graphs.

The M-Path construction (Section 7) requires counting vertex-disjoint open
paths across a lattice; by Menger's theorem that count is a maximum flow in a
vertex-split unit-capacity network, which Dinic's algorithm solves in
``O(E sqrt(V))``.  The percolation sampler does not build that network
(:mod:`repro.graphs.disjoint_paths` searches it implicitly); this generic
solver is the reference its tests compare against.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.exceptions import InvalidParameterError

__all__ = ["FlowNetwork"]


class FlowNetwork:
    """A directed flow network with integer capacities.

    Nodes may be arbitrary hashable objects; they are registered lazily when
    an edge mentioning them is added.
    """

    def __init__(self):
        self._index: dict[Hashable, int] = {}
        # Edge arrays: to-node, capacity, index of the reverse edge.
        self._to: list[int] = []
        self._capacity: list[int] = []
        self._adjacency: list[list[int]] = []

    def _node_index(self, node: Hashable) -> int:
        index = self._index.get(node)
        if index is None:
            index = len(self._index)
            self._index[node] = index
            self._adjacency.append([])
        return index

    @property
    def num_nodes(self) -> int:
        """The number of registered nodes."""
        return len(self._index)

    @property
    def num_edges(self) -> int:
        """The number of directed edges (excluding residual reverse edges)."""
        return len(self._to) // 2

    def add_edge(self, source: Hashable, target: Hashable, capacity: int) -> None:
        """Add a directed edge with the given integer capacity."""
        if capacity < 0:
            raise InvalidParameterError(f"capacity must be non-negative, got {capacity}")
        u = self._node_index(source)
        v = self._node_index(target)
        self._adjacency[u].append(len(self._to))
        self._to.append(v)
        self._capacity.append(capacity)
        self._adjacency[v].append(len(self._to))
        self._to.append(u)
        self._capacity.append(0)

    # ------------------------------------------------------------------
    # Dinic's algorithm.
    # ------------------------------------------------------------------
    def _bfs_levels(self, source: int, sink: int) -> list[int] | None:
        levels = [-1] * self.num_nodes
        levels[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for edge_id in self._adjacency[node]:
                target = self._to[edge_id]
                if self._capacity[edge_id] > 0 and levels[target] < 0:
                    levels[target] = levels[node] + 1
                    queue.append(target)
        return levels if levels[sink] >= 0 else None

    def _dfs_augment(
        self, source: int, sink: int, levels: list[int], iterators: list[int]
    ) -> int:
        """Push flow along one level-graph path and return the amount (0: none left).

        The path is an explicit stack of edge ids, so its length is not bounded
        by the interpreter's recursion limit.
        """
        path: list[int] = []
        node = source
        while node != sink:
            edges = self._adjacency[node]
            if iterators[node] == len(edges):
                if not path:
                    return 0
                # Dead end: step back and retire the edge that led here.
                node = self._to[path.pop() ^ 1]
                iterators[node] += 1
                continue
            edge_id = edges[iterators[node]]
            target = self._to[edge_id]
            if self._capacity[edge_id] > 0 and levels[target] == levels[node] + 1:
                path.append(edge_id)
                node = target
            else:
                iterators[node] += 1
        pushed = min(self._capacity[edge_id] for edge_id in path)
        for edge_id in path:
            self._capacity[edge_id] -= pushed
            self._capacity[edge_id ^ 1] += pushed
        return pushed

    def max_flow(self, source: Hashable, sink: Hashable) -> int:
        """Return the maximum flow from ``source`` to ``sink``.

        The network's residual capacities are consumed by the computation;
        build a fresh network for each query.
        """
        if source not in self._index or sink not in self._index:
            return 0
        source_index = self._index[source]
        sink_index = self._index[sink]
        if source_index == sink_index:
            raise InvalidParameterError("source and sink must differ")

        total = 0
        while True:
            levels = self._bfs_levels(source_index, sink_index)
            if levels is None:
                return total
            iterators = [0] * self.num_nodes
            while True:
                pushed = self._dfs_augment(source_index, sink_index, levels, iterators)
                if pushed == 0:
                    break
                total += pushed
