"""Unit tests for the graph substrate: max-flow, disjoint paths."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs import FlowNetwork, max_vertex_disjoint_paths


class TestMaxFlow:
    def test_single_edge(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 5)
        assert network.max_flow("s", "t") == 5

    def test_series_bottleneck(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 10)
        network.add_edge("a", "t", 3)
        assert network.max_flow("s", "t") == 3

    def test_parallel_paths_add_up(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 2)
        network.add_edge("a", "t", 2)
        network.add_edge("s", "b", 3)
        network.add_edge("b", "t", 3)
        assert network.max_flow("s", "t") == 5

    def test_classic_textbook_instance(self):
        network = FlowNetwork()
        edges = [
            ("s", "a", 10), ("s", "b", 10), ("a", "b", 2),
            ("a", "t", 4), ("a", "c", 8), ("b", "c", 9),
            ("c", "t", 10),
        ]
        for u, v, capacity in edges:
            network.add_edge(u, v, capacity)
        assert network.max_flow("s", "t") == 14

    def test_disconnected_sink(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 1)
        network.add_edge("b", "t", 1)
        assert network.max_flow("s", "t") == 0

    def test_unknown_nodes_give_zero(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 1)
        assert network.max_flow("s", "missing") == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork().add_edge("s", "t", -1)

    def test_same_source_and_sink_rejected(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 1)
        with pytest.raises(ValueError):
            network.max_flow("s", "s")

    def test_matches_networkx_on_random_networks(self, rng):
        for seed in range(4):
            graph = nx.gnp_random_graph(12, 0.3, seed=seed, directed=True)
            network = FlowNetwork()
            for u, v in graph.edges:
                capacity = int(rng.integers(1, 6))
                graph[u][v]["capacity"] = capacity
                network.add_edge(u, v, capacity)
            if 0 not in graph.nodes or 11 not in graph.nodes:
                continue
            expected = nx.maximum_flow_value(graph, 0, 11)
            assert network.max_flow(0, 11) == expected


class TestDisjointPaths:
    @staticmethod
    def grid_neighbours(vertex):
        i, j = vertex
        return [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]

    def test_full_grid_has_side_many_paths(self):
        side = 4
        vertices = {(i, j) for i in range(side) for j in range(side)}
        sources = [(0, j) for j in range(side)]
        sinks = [(side - 1, j) for j in range(side)]
        count = max_vertex_disjoint_paths(vertices, self.grid_neighbours, sources, sinks)
        assert count == side

    def test_removing_a_row_cuts_everything(self):
        side = 4
        vertices = {(i, j) for i in range(side) for j in range(side) if i != 2}
        sources = [(0, j) for j in range(side)]
        sinks = [(side - 1, j) for j in range(side)]
        assert max_vertex_disjoint_paths(vertices, self.grid_neighbours, sources, sinks) == 0

    def test_single_corridor(self):
        # Only row j = 0 survives: exactly one disjoint path remains.
        side = 4
        vertices = {(i, 0) for i in range(side)} | {(0, j) for j in range(side)}
        sources = [(0, j) for j in range(side)]
        sinks = [(side - 1, j) for j in range(side)]
        assert max_vertex_disjoint_paths(vertices, self.grid_neighbours, sources, sinks) == 1

    def test_no_usable_sources(self):
        vertices = {(1, 0), (2, 0)}
        assert (
            max_vertex_disjoint_paths(vertices, self.grid_neighbours, [(0, 0)], [(2, 0)]) == 0
        )

    def test_paths_are_vertex_disjoint_not_just_edge_disjoint(self):
        # An hourglass: two sources and two sinks forced through one middle vertex.
        vertices = {"s1", "s2", "m", "t1", "t2"}
        adjacency = {
            "s1": ["m"], "s2": ["m"], "m": ["s1", "s2", "t1", "t2"],
            "t1": ["m"], "t2": ["m"],
        }
        count = max_vertex_disjoint_paths(
            vertices, lambda v: adjacency[v], ["s1", "s2"], ["t1", "t2"]
        )
        assert count == 1

    def test_matches_menger_on_triangular_lattice(self, rng):
        from repro.percolation import TriangularGrid

        grid = TriangularGrid(5)
        vertices = set(grid.vertices())
        count = max_vertex_disjoint_paths(
            vertices, grid.neighbours, grid.left_side(), grid.right_side()
        )
        assert count == 5
