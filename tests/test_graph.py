"""Unit tests for the CSR graph type (repro.graphs.graph)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, GraphError


class TestConstruction:
    def test_basic_triangle(self):
        graph = Graph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert graph.name == "triangle"
        assert len(graph) == 3

    def test_edges_listed_once_each(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_isolated_vertices_allowed_at_construction(self):
        graph = Graph(4, [(0, 1)])
        assert graph.degree(2) == 0
        assert graph.degree(3) == 0

    def test_from_edges_classmethod(self):
        graph = Graph.from_edges(3, [(0, 2)])
        assert graph.has_edge(0, 2)


class TestQueries:
    def test_degrees(self, small_star):
        assert small_star.degree(0) == 20
        assert all(small_star.degree(v) == 1 for v in range(1, 21))

    def test_degrees_array_read_only(self, small_star):
        with pytest.raises(ValueError):
            small_star.degrees[0] = 99

    def test_neighbors_of_star_center(self, small_star):
        neighbors = set(small_star.neighbors(0).tolist())
        assert neighbors == set(range(1, 21))

    def test_neighbors_read_only(self, small_star):
        view = small_star.neighbors(0)
        with pytest.raises(ValueError):
            view[0] = 5

    def test_has_edge(self, small_star):
        assert small_star.has_edge(0, 5)
        assert small_star.has_edge(5, 0)
        assert not small_star.has_edge(1, 2)
        assert not small_star.has_edge(3, 3)

    def test_edge_ids_follow_edges_order(self, small_heavy_tree):
        pairs = np.array(list(small_heavy_tree.edges()))
        expected = np.arange(len(pairs))
        assert np.array_equal(small_heavy_tree.edge_ids(pairs[:, 0], pairs[:, 1]), expected)
        assert np.array_equal(small_heavy_tree.edge_ids(pairs[:, 1], pairs[:, 0]), expected)
        slots = small_heavy_tree.slot_edge_ids()
        assert np.array_equal(
            pairs[slots], np.sort(np.column_stack((small_heavy_tree.slot_sources(),
                                                   small_heavy_tree.indices)), axis=1)
        )

    def test_edge_ids_of_non_edges(self, small_star):
        n = small_star.num_vertices
        # Self pairs, non-adjacent leaves and ids outside [0, n) are never
        # edges, even where u * n + v aliases a real edge's key: (-1, n + 5)
        # has the key of the edge (0, 5).
        ids = small_star.edge_ids([3, 1, -1, 0, 0], [3, 2, n + 5, n, 5])
        assert ids.tolist() == [-1, -1, -1, -1, 4]

    def test_vertices_iterable(self, small_star):
        assert list(small_star.vertices()) == list(range(21))

    def test_edge_count_matches_degree_sum(self, small_heavy_tree):
        assert small_heavy_tree.degrees.sum() == 2 * small_heavy_tree.num_edges

    def test_indptr_indices_consistency(self, small_double_star):
        indptr = small_double_star.indptr
        indices = small_double_star.indices
        assert indptr[0] == 0
        assert indptr[-1] == len(indices)
        assert np.all(np.diff(indptr) == small_double_star.degrees)


class TestSampling:
    def test_sample_neighbor_is_a_neighbor(self, small_heavy_tree, rng):
        for _ in range(50):
            vertex = int(rng.integers(small_heavy_tree.num_vertices))
            sampled = small_heavy_tree.sample_neighbor(vertex, rng)
            assert small_heavy_tree.has_edge(vertex, sampled)

    def test_sample_neighbor_isolated_raises(self, rng):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.sample_neighbor(2, rng)

    def test_sample_neighbors_vectorized_matches_edges(self, small_regular, rng):
        vertices = np.arange(small_regular.num_vertices)
        sampled = small_regular.sample_neighbors(vertices, rng)
        for u, v in zip(vertices.tolist(), sampled.tolist()):
            assert small_regular.has_edge(u, v)

    def test_sample_neighbors_uniformity_on_star_leaves(self, small_star, rng):
        # Every leaf has exactly one neighbor (the center).
        leaves = np.arange(1, 21)
        sampled = small_star.sample_neighbors(leaves, rng)
        assert np.all(sampled == 0)

    def test_sample_neighbor_approximately_uniform(self, rng):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(3000):
            counts[graph.sample_neighbor(0, rng)] += 1
        for value in counts.values():
            assert 800 < value < 1200

    def test_stationary_distribution_sums_to_one(self, small_heavy_tree):
        pi = small_heavy_tree.stationary_distribution()
        assert pytest.approx(1.0) == pi.sum()
        assert np.all(pi >= 0)

    def test_stationary_distribution_proportional_to_degree(self, small_star):
        pi = small_star.stationary_distribution()
        assert pi[0] == pytest.approx(20 / 40)
        assert pi[1] == pytest.approx(1 / 40)


class TestPredicates:
    def test_star_is_connected_not_regular_bipartite(self, small_star):
        assert small_star.is_connected()
        assert not small_star.is_regular()
        assert small_star.is_bipartite()

    def test_complete_graph_regular_not_bipartite(self, small_complete):
        assert small_complete.is_regular()
        assert small_complete.regularity_degree() == 15
        assert not small_complete.is_bipartite()

    def test_regularity_degree_raises_on_irregular(self, small_star):
        with pytest.raises(GraphError):
            small_star.regularity_degree()

    def test_disconnected_graph_detected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert not graph.is_connected()

    def test_even_cycle_is_bipartite_odd_is_not(self):
        even = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        odd = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert even.is_bipartite()
        assert not odd.is_bipartite()

    def test_connectivity_and_bipartiteness_are_computed_once(self, monkeypatch):
        even = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        split = Graph(4, [(0, 1), (2, 3)])
        answers = [(even.is_connected(), even.is_bipartite())]
        answers.append((split.is_connected(), split.is_bipartite()))

        def recompute(self):
            raise AssertionError("recomputed a cached predicate")

        monkeypatch.setattr(Graph, "_bfs_reaches_all", recompute)
        monkeypatch.setattr(Graph, "_two_colorable", recompute)
        assert answers == [(True, True), (False, True)]
        assert (even.is_connected(), even.is_bipartite()) == answers[0]
        assert (split.is_connected(), split.is_bipartite()) == answers[1]


class TestTraversal:
    def test_eccentricities_of_star(self, small_star):
        # The centre is one hop from every leaf, a leaf two hops from the rest.
        assert small_star.distances_from(0).max() == 1
        assert small_star.distances_from(1).max() == 2

    def test_distances_on_path(self, path_graph_4):
        distances = path_graph_4.distances_from(0)
        assert distances.tolist() == [0, 1, 2, 3]

    def test_distances_unreachable_is_minus_one(self):
        graph = Graph(3, [(0, 1)])
        distances = graph.distances_from(0)
        assert distances[2] == -1
