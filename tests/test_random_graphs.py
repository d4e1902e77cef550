"""Tests for the non-regular random graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import GraphError
from repro.graphs.random_graphs import (
    _triangular_pairs,
    connected_erdos_renyi,
    erdos_renyi,
    preferential_attachment,
)
from repro.store.keys import graph_fingerprint

#: ``graph_fingerprint`` of G(n, p) samples by (builder, n, p, seed).  Any
#: change to the draws or to the index-to-pair map moves them.
PINNED_GNP = {
    ("erdos_renyi", 200, 0.05, 1): "1cc621c25e1baca197e41d4670e037252ba28e0de53fb8ae9aa12491f90c9c15",
    ("erdos_renyi", 1000, 0.004, 2): "d39e80330976c41d926655b84bc14abb9d9ade346e399973b699657cee6aa1ea",
    ("erdos_renyi", 17, 1.0, 3): "8d0a4cb520482fb35b3195f48c5b0d6c4cad7aafe4e94f7733e7ae3e74bfc357",
    ("connected_erdos_renyi", 200, 0.05, 4): "3c30295ce857b5c62f9b8e9b23973fbe912371170af1cca115489ba4ef7c79cd",
    ("connected_erdos_renyi", 1000, 0.01, 5): "94140d10a30629f23f41a4258ba3cc6c48933384da31e2d56cb7c73a487c466a",
    ("connected_erdos_renyi", 17, 1.0, 6): "8d0a4cb520482fb35b3195f48c5b0d6c4cad7aafe4e94f7733e7ae3e74bfc357",
}
_GNP_BUILDERS = {"erdos_renyi": erdos_renyi, "connected_erdos_renyi": connected_erdos_renyi}


@pytest.mark.parametrize("builder, n, p, seed", sorted(PINNED_GNP))
def test_gnp_samples_match_their_pins(builder, n, p, seed):
    graph = _GNP_BUILDERS[builder](n, p, np.random.default_rng(seed))
    assert graph_fingerprint(graph) == PINNED_GNP[(builder, n, p, seed)]


@pytest.mark.parametrize("n", [2, 3, 5, 17, 100])
def test_triangular_pairs_enumerate_the_upper_triangle(n):
    u, v = _triangular_pairs(np.arange(n * (n - 1) // 2), n)
    assert list(zip(u.tolist(), v.tolist())) == [(a, b) for a in range(n) for b in range(a + 1, n)]


@pytest.mark.parametrize("n", [4097, 2**20 + 3])
def test_triangular_pairs_exact_at_row_boundaries(n):
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2
    u, v = _triangular_pairs(np.concatenate([starts, starts + (n - 2 - rows)]), n)
    assert np.array_equal(u, np.concatenate([rows, rows]))
    assert np.array_equal(v, np.concatenate([rows + 1, np.full(n - 1, n - 1)]))


class TestErdosRenyi:
    def test_p_zero_has_no_edges(self, rng):
        graph = erdos_renyi(30, 0.0, rng)
        assert graph.num_edges == 0

    def test_p_one_is_complete(self, rng):
        graph = erdos_renyi(12, 1.0, rng)
        assert graph.num_edges == 12 * 11 // 2

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.1
        counts = [
            erdos_renyi(n, p, np.random.default_rng(seed)).num_edges for seed in range(5)
        ]
        expected = p * n * (n - 1) / 2
        assert abs(np.mean(counts) - expected) < 0.15 * expected

    def test_all_edges_valid(self, rng):
        graph = erdos_renyi(50, 0.2, rng)
        for u, v in graph.edges():
            assert 0 <= u < v < 50

    def test_invalid_probability_rejected(self, rng):
        with pytest.raises(GraphError):
            erdos_renyi(10, 1.5, rng)

    def test_too_few_vertices_rejected(self, rng):
        with pytest.raises(GraphError):
            erdos_renyi(1, 0.5, rng)

    def test_reproducible_with_same_seed(self):
        a = erdos_renyi(40, 0.15, np.random.default_rng(3))
        b = erdos_renyi(40, 0.15, np.random.default_rng(3))
        assert sorted(a.edges()) == sorted(b.edges())


class TestConnectedErdosRenyi:
    def test_returns_connected_graph(self, rng):
        graph = connected_erdos_renyi(60, 0.15, rng)
        assert graph.is_connected()

    def test_raises_when_probability_hopeless(self, rng):
        with pytest.raises(GraphError):
            connected_erdos_renyi(100, 0.001, rng, max_attempts=3)


class TestPreferentialAttachment:
    def test_vertex_count(self, rng):
        graph = preferential_attachment(100, 3, rng)
        assert graph.num_vertices == 100

    def test_connected(self, rng):
        graph = preferential_attachment(150, 2, rng)
        assert graph.is_connected()

    def test_minimum_degree_at_least_m(self, rng):
        graph = preferential_attachment(120, 3, rng)
        # Every vertex added after the seed star attaches to exactly 3 targets.
        assert int(graph.degrees.min()) >= 1
        late_vertices = range(4, 120)
        assert all(graph.degree(v) >= 3 for v in late_vertices)

    def test_heavy_tail_hub_exists(self, rng):
        graph = preferential_attachment(400, 2, rng)
        assert int(graph.degrees.max()) > 5 * int(np.median(graph.degrees))

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(GraphError):
            preferential_attachment(5, 0, rng)
        with pytest.raises(GraphError):
            preferential_attachment(3, 3, rng)
