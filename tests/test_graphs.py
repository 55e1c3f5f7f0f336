"""Unit tests for the graph substrate: max-flow, disjoint paths."""

from __future__ import annotations

import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import FlowNetwork, max_vertex_disjoint_paths
from repro.percolation import TriangularGrid, sample_open_vertices


def reference_disjoint_paths(vertices, neighbours, sources, sinks) -> int:
    """Menger's count on the explicit vertex-split network, solved by ``FlowNetwork``."""
    usable = set(vertices)
    network = FlowNetwork()
    for vertex in usable:
        network.add_edge(("in", vertex), ("out", vertex), 1)
        for neighbour in neighbours(vertex):
            if neighbour in usable:
                network.add_edge(("out", vertex), ("in", neighbour), 1)
    for vertex in usable.intersection(sources):
        network.add_edge("super-source", ("in", vertex), 1)
    for vertex in usable.intersection(sinks):
        network.add_edge(("out", vertex), "super-sink", 1)
    return network.max_flow("super-source", "super-sink")


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

    def test_augmenting_path_longer_than_the_recursion_limit(self):
        length = 3 * sys.getrecursionlimit()
        network = FlowNetwork()
        for node in range(length):
            network.add_edge(node, node + 1, 2)
        assert network.max_flow(0, length) == 2


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
        grid = TriangularGrid(5)
        vertices = set(grid.vertices())
        count = max_vertex_disjoint_paths(
            vertices, grid.neighbours, grid.left_side(), grid.right_side()
        )
        assert count == 5

    def test_vertex_that_is_both_source_and_sink_is_a_path_of_its_own(self):
        adjacency = {"s": ["x"], "x": ["s", "t"], "t": ["x"]}
        assert max_vertex_disjoint_paths({"x"}, adjacency.__getitem__, ["x"], ["x"]) == 1
        # x can carry only one path, whichever source is tried first.
        for sources in (["s", "x"], ["x", "s"]):
            arguments = (set(adjacency), adjacency.__getitem__, sources, ["x", "t"])
            assert max_vertex_disjoint_paths(*arguments) == 1
            assert reference_disjoint_paths(*arguments) == 1

    @pytest.mark.parametrize("a_neighbours", [["t2", "b"], ["b", "t2"]])
    def test_source_inside_an_earlier_path_is_rerouted_around(self, a_neighbours):
        # Whichever way the first search leaves a, the two paths a-t2 and
        # b-t1 exist; a-b-t1 found first makes b a source in mid-path.
        adjacency = {"a": a_neighbours, "b": ["a", "t1"], "t1": ["b"], "t2": ["a"]}
        count = max_vertex_disjoint_paths(
            set(adjacency), adjacency.__getitem__, ["a", "b"], ["t1", "t2"]
        )
        assert count == 2

    def test_cancelling_a_split_edge_takes_the_vertex_off_its_path(self):
        # s1-m-t2 found first must give way entirely: the only two disjoint
        # paths are s1-t1 and s2-t2, neither through m.
        adjacency = {
            "s1": ["t1", "m"], "s2": ["t2"], "m": ["s1", "t2"],
            "t1": ["s1"], "t2": ["m", "s2"],
        }
        for order in (["s1", "s2"], ["s2", "s1"]):
            count = max_vertex_disjoint_paths(
                set(adjacency), adjacency.__getitem__, order, ["t1", "t2"]
            )
            assert count == 2

    def test_limit_stops_the_search(self):
        grid = TriangularGrid(6)
        calls = []

        def neighbours(vertex):
            calls.append(vertex)
            return grid.neighbours(vertex)

        arguments = (set(grid.vertices()), neighbours, grid.left_side(), grid.right_side())
        assert max_vertex_disjoint_paths(*arguments, limit=0) == 0
        assert not calls
        assert max_vertex_disjoint_paths(*arguments, limit=2) == 2
        bounded = len(calls)
        assert max_vertex_disjoint_paths(*arguments) == 6
        assert len(calls) - bounded > bounded

    def test_one_long_crossing_does_not_exhaust_the_stack(self):
        # A snake through a 40 x 40 grid: 820 open vertices, one LR path.
        side = 40
        vertices = {
            (i, j)
            for i in range(side)
            for j in range(side)
            if i % 2 == 0 or j == (side - 1 if (i // 2) % 2 else 0)
        }
        sources = [(0, j) for j in range(side)]
        sinks = [(side - 1, j) for j in range(side)]
        arguments = (vertices, self.grid_neighbours, sources, sinks)
        assert max_vertex_disjoint_paths(*arguments) == 1
        assert reference_disjoint_paths(*arguments) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        side=st.integers(2, 9),
        closure=st.floats(0.05, 0.75),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_search_equals_flow_network_reference(self, side, closure, seed):
        grid = TriangularGrid(side)
        open_vertices = sample_open_vertices(grid, closure, np.random.default_rng(seed))
        for sources, sinks in (
            (grid.left_side(), grid.right_side()),
            (grid.bottom_side(), grid.top_side()),
            # Overlapping end sets: corner vertices are source and sink at once.
            (grid.left_side() + grid.top_side(), grid.top_side() + grid.right_side()),
        ):
            arguments = (open_vertices, grid.neighbours, sources, sinks)
            full = reference_disjoint_paths(*arguments)
            assert max_vertex_disjoint_paths(*arguments) == full
            for limit in (1, 2, 3):
                assert max_vertex_disjoint_paths(*arguments, limit=limit) == min(limit, full)
