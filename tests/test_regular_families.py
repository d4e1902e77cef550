"""Tests for the regular graph families (repro.graphs.regular)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import GraphError
from repro.graphs.regular import (
    circulant_graph,
    clique_cycle,
    clique_path,
    complete_graph,
    cycle_graph,
    hypercube,
    random_regular_graph,
    torus_grid,
)
from repro.store.keys import graph_fingerprint


class TestCompleteGraph:
    def test_counts(self):
        graph = complete_graph(10)
        assert graph.num_vertices == 10
        assert graph.num_edges == 45

    def test_regular(self):
        assert complete_graph(8).regularity_degree() == 7

    def test_rejects_single_vertex(self):
        with pytest.raises(GraphError):
            complete_graph(1)


class TestCycleGraph:
    def test_counts_and_degree(self):
        graph = cycle_graph(10)
        assert graph.num_vertices == 10
        assert graph.num_edges == 10
        assert graph.regularity_degree() == 2

    def test_connected(self):
        assert cycle_graph(17).is_connected()

    def test_rejects_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)


class TestCirculant:
    def test_degree_matches_offsets(self):
        graph = circulant_graph(20, [1, 2, 3])
        assert graph.regularity_degree() == 6

    def test_rejects_offset_zero(self):
        with pytest.raises(GraphError):
            circulant_graph(10, [0])

    def test_connected_for_offset_one(self):
        assert circulant_graph(15, [1, 4]).is_connected()

    @pytest.mark.parametrize(
        "n, offsets, edges, fingerprint",
        [
            # Offset n/2 adds each of its edges once (degree 2 + 1).
            (10, [1, 5], 15, "3827ce305777f5da97dbd674c5517b838b82b9ee7a80263109d8cfdb33591aa6"),
            (20, [1, 2, 3], 60, "f007a6651ccc549cbac2225e06e856acaa32e83dcedf9864f29625ade7e73eca"),
            # Offsets are taken mod n: -2, 2 and 11 are all offset 2.
            (9, [2, -2, 11], 9, "dbbf683d3f1a9e54c67302778daad338520402b05da5abd3a7c950468c47f58e"),
        ],
    )
    def test_graphs_are_pinned(self, n, offsets, edges, fingerprint):
        graph = circulant_graph(n, offsets)
        assert graph.num_edges == edges
        assert graph_fingerprint(graph) == fingerprint


class TestHypercube:
    def test_counts(self):
        graph = hypercube(4)
        assert graph.num_vertices == 16
        assert graph.num_edges == 32

    def test_regular_with_dimension_degree(self):
        assert hypercube(6).regularity_degree() == 6

    def test_bipartite(self):
        assert hypercube(3).is_bipartite()

    def test_neighbors_differ_in_one_bit(self):
        graph = hypercube(4)
        for u in range(graph.num_vertices):
            for v in graph.neighbors(u):
                assert bin(u ^ int(v)).count("1") == 1

    def test_rejects_dimension_zero(self):
        with pytest.raises(GraphError):
            hypercube(0)


class TestTorus:
    def test_counts_and_regularity(self):
        graph = torus_grid(4, 5)
        assert graph.num_vertices == 20
        assert graph.regularity_degree() == 4

    def test_connected(self):
        assert torus_grid(3, 3).is_connected()

    def test_rejects_small_dimensions(self):
        with pytest.raises(GraphError):
            torus_grid(2, 5)


class TestRandomRegular:
    def test_is_regular_and_connected(self, rng):
        graph = random_regular_graph(60, 6, rng)
        assert graph.regularity_degree() == 6
        assert graph.is_connected()

    def test_simple_no_duplicate_edges(self, rng):
        graph = random_regular_graph(40, 8, rng)
        edges = list(graph.edges())
        assert len(edges) == len(set(edges)) == 40 * 8 // 2

    def test_odd_product_rejected(self, rng):
        with pytest.raises(GraphError):
            random_regular_graph(7, 3, rng)

    def test_degree_too_large_rejected(self, rng):
        with pytest.raises(GraphError):
            random_regular_graph(6, 6, rng)

    def test_degree_zero_rejected(self, rng):
        with pytest.raises(GraphError):
            random_regular_graph(6, 0, rng)

    def test_different_seeds_give_different_graphs(self):
        a = random_regular_graph(30, 4, np.random.default_rng(1))
        b = random_regular_graph(30, 4, np.random.default_rng(2))
        assert sorted(a.edges()) != sorted(b.edges())

    def test_same_seed_reproducible(self):
        a = random_regular_graph(30, 4, np.random.default_rng(5))
        b = random_regular_graph(30, 4, np.random.default_rng(5))
        assert sorted(a.edges()) == sorted(b.edges())


class TestCliquePathAndCycle:
    def test_clique_path_counts(self):
        graph = clique_path(4, 5)
        assert graph.num_vertices == 20
        # 4 cliques of C(5,2)=10 edges plus 3 matchings of 5 edges.
        assert graph.num_edges == 4 * 10 + 3 * 5

    def test_clique_path_end_degrees(self):
        graph = clique_path(3, 4)
        assert graph.degree(0) == 4  # 3 clique edges + 1 matching edge
        assert graph.degree(4) == 5  # interior clique vertex

    def test_clique_cycle_is_regular(self):
        graph = clique_cycle(5, 4)
        assert graph.regularity_degree() == 5
        assert graph.is_connected()

    def test_clique_cycle_counts(self):
        graph = clique_cycle(3, 4)
        assert graph.num_vertices == 12
        assert graph.num_edges == 3 * 6 + 3 * 4

    def test_clique_path_rejects_single_clique(self):
        with pytest.raises(GraphError):
            clique_path(1, 4)

    def test_clique_cycle_rejects_two_cliques(self):
        with pytest.raises(GraphError):
            clique_cycle(2, 4)
