"""Tests of the Figure 1 graph family generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, GraphError, cycle_of_stars_of_cliques, double_star, heavy_binary_tree, siamese_heavy_binary_tree, star
from repro.graphs.cycle_stars_cliques import cycle_stars_layout
from repro.graphs.double_star import CENTER_A, CENTER_B, leaves_of
from repro.graphs.heavy_binary_tree import (
    complete_binary_tree_edges,
    internal_vertices,
    tree_leaves,
)
from repro.graphs.siamese_tree import left_leaves, right_leaves
from repro.graphs.star import CENTER, leaf_vertices
from repro.store.keys import graph_fingerprint


class TestStar:
    def test_vertex_and_edge_counts(self):
        graph = star(50)
        assert graph.num_vertices == 51
        assert graph.num_edges == 50

    def test_center_degree(self):
        graph = star(50)
        assert graph.degree(CENTER) == 50

    def test_leaf_degrees(self):
        graph = star(50)
        for leaf in leaf_vertices(graph):
            assert graph.degree(leaf) == 1

    def test_connected_and_bipartite(self):
        graph = star(10)
        assert graph.is_connected()
        assert graph.is_bipartite()

    def test_rejects_zero_leaves(self):
        with pytest.raises(GraphError):
            star(0)


class TestDoubleStar:
    def test_vertex_count(self):
        graph = double_star(100)
        assert graph.num_vertices == 100

    def test_bridge_edge_exists(self):
        graph = double_star(100)
        assert graph.has_edge(CENTER_A, CENTER_B)

    def test_centers_have_balanced_leaf_counts(self):
        graph = double_star(100)
        leaves_a = leaves_of(graph, CENTER_A)
        leaves_b = leaves_of(graph, CENTER_B)
        assert len(leaves_a) + len(leaves_b) == 98
        assert abs(len(leaves_a) - len(leaves_b)) <= 1

    def test_leaves_have_degree_one(self):
        graph = double_star(60)
        for vertex in range(2, 60):
            assert graph.degree(vertex) == 1

    def test_odd_vertex_count_supported(self):
        graph = double_star(101)
        assert graph.num_vertices == 101
        assert graph.is_connected()

    def test_leaves_of_rejects_non_center(self):
        graph = double_star(20)
        with pytest.raises(GraphError):
            leaves_of(graph, 5)

    def test_rejects_too_small(self):
        with pytest.raises(GraphError):
            double_star(3)

    def test_connected_and_bipartite(self):
        graph = double_star(64)
        assert graph.is_connected()
        assert graph.is_bipartite()


class TestHeavyBinaryTree:
    def test_complete_binary_tree_edges_count(self):
        assert len(complete_binary_tree_edges(15)) == 14

    def test_vertex_count_preserved(self):
        graph = heavy_binary_tree(31)
        assert graph.num_vertices == 31

    def test_leaves_induce_a_clique(self):
        graph = heavy_binary_tree(31)
        leaves = tree_leaves(graph)
        assert len(leaves) == 16  # ceil(31 / 2)
        for i, u in enumerate(leaves):
            for v in leaves[i + 1 :]:
                assert graph.has_edge(u, v)

    def test_internal_vertices_disjoint_from_leaves(self):
        graph = heavy_binary_tree(31)
        assert set(internal_vertices(graph)).isdisjoint(tree_leaves(graph))
        assert len(internal_vertices(graph)) + len(tree_leaves(graph)) == 31

    def test_root_degree_is_two(self):
        graph = heavy_binary_tree(31)
        assert graph.degree(0) == 2

    def test_leaf_volume_dominates(self):
        # Lemma 4(b): the leaf clique holds a 1 - O(1/n) share of the volume.
        graph = heavy_binary_tree(255)
        degrees = graph.degrees
        assert degrees[tree_leaves(graph)].sum() / degrees.sum() > 0.95

    def test_connected(self):
        graph = heavy_binary_tree(63)
        assert graph.is_connected()

    def test_rejects_too_small(self):
        with pytest.raises(GraphError):
            heavy_binary_tree(2)


class TestSiameseTree:
    def test_vertex_count_merges_roots(self):
        graph = siamese_heavy_binary_tree(31)
        assert graph.num_vertices == 61

    def test_root_connects_both_copies(self):
        graph = siamese_heavy_binary_tree(31)
        # Root has two children in each copy.
        assert graph.degree(0) == 4

    def test_left_and_right_leaf_cliques(self):
        graph = siamese_heavy_binary_tree(31)
        left = left_leaves(graph)
        right = right_leaves(graph)
        assert len(left) == len(right) == 16
        assert set(left).isdisjoint(right)
        for leaves in (left, right):
            for i, u in enumerate(leaves):
                for v in leaves[i + 1 :]:
                    assert graph.has_edge(u, v)

    def test_no_edges_between_left_and_right_leaves(self):
        graph = siamese_heavy_binary_tree(15)
        for u in left_leaves(graph):
            for v in right_leaves(graph):
                assert not graph.has_edge(u, v)

    def test_connected(self):
        graph = siamese_heavy_binary_tree(31)
        assert graph.is_connected()

    def test_rejects_too_small(self):
        with pytest.raises(GraphError):
            siamese_heavy_binary_tree(2)

    @pytest.mark.parametrize("tree_vertices", [3, 4, 7, 10, 31, 64, 127])
    def test_matches_edge_set_construction(self, tree_vertices):
        """The array builder emits exactly the graph of a per-edge set of
        tuples: two heap-order copies whose roots merge into vertex 0."""
        shift = tree_vertices - 1
        leaves = [v for v in range(tree_vertices) if 2 * v + 1 >= tree_vertices]
        edges = set()
        for side in (0, 1):
            def remap(v):
                return v if v == 0 or side == 0 else v + shift
            for u, v in complete_binary_tree_edges(tree_vertices).tolist():
                edges.add((remap(u), remap(v)))
            for i, u in enumerate(leaves):
                for v in leaves[i + 1 :]:
                    edges.add((remap(u), remap(v)))
        expected = Graph(2 * tree_vertices - 1, sorted(edges))
        graph = siamese_heavy_binary_tree(tree_vertices)
        assert np.array_equal(graph.indptr, expected.indptr)
        assert np.array_equal(graph.indices, expected.indices)
        assert graph_fingerprint(graph) == graph_fingerprint(expected)
        assert left_leaves(graph) == leaves
        assert right_leaves(graph) == [leaf + shift for leaf in leaves]


class TestCycleStarsCliques:
    def test_total_vertex_count(self):
        graph, layout = cycle_of_stars_of_cliques(4)
        assert graph.num_vertices == 4 + 16 + 64
        assert layout.num_vertices == graph.num_vertices

    def test_ring_vertex_degrees(self):
        graph, layout = cycle_of_stars_of_cliques(5)
        for ring_vertex in layout.ring:
            assert graph.degree(ring_vertex) == 5 + 2  # k leaves + 2 ring edges

    def test_star_leaf_degrees(self):
        graph, layout = cycle_of_stars_of_cliques(5)
        for i in range(5):
            for j in range(5):
                assert graph.degree(layout.star_leaves[i][j]) == 5 + 1

    def test_clique_member_degrees(self):
        graph, layout = cycle_of_stars_of_cliques(5)
        member = layout.clique_members[2][3][0]
        assert graph.degree(member) == 5  # k-1 clique members + the star leaf

    def test_cliques_are_cliques(self):
        graph, layout = cycle_of_stars_of_cliques(4)
        clique = [layout.star_leaves[1][2], *layout.clique_members[1][2]]  # Q_{1,2}
        assert len(clique) == 5
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert graph.has_edge(u, v)

    def test_ring_is_a_cycle(self):
        graph, layout = cycle_of_stars_of_cliques(6)
        k = 6
        for i in range(k):
            assert graph.has_edge(layout.ring[i], layout.ring[(i + 1) % k])

    def test_connected_and_nearly_regular(self):
        graph, _layout = cycle_of_stars_of_cliques(5)
        assert graph.is_connected()
        degrees = graph.degrees
        assert degrees.max() - degrees.min() <= 2

    def test_layout_function_standalone(self):
        layout = cycle_stars_layout(3)
        assert layout.k == 3
        assert len(layout.ring) == 3
        assert len(layout.star_leaves) == 3

    def test_rejects_small_k(self):
        with pytest.raises(GraphError):
            cycle_of_stars_of_cliques(2)
