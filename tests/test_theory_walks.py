"""Tests for random-walk quantities (repro.theory.walks)."""

from __future__ import annotations


import numpy as np
import pytest

from repro.graphs import Graph, complete_graph, cycle_graph, star
from repro.theory.walks import (
    expected_hitting_times,
    mixing_time_bound,
    relaxation_time,
    spectral_gap,
    stationary_distribution,
    transition_matrix,
)


class TestTransitionMatrix:
    def test_rows_sum_to_one(self, small_heavy_tree):
        matrix = transition_matrix(small_heavy_tree)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_lazy_matrix_has_half_on_diagonal(self, small_complete):
        matrix = transition_matrix(small_complete, lazy=True)
        assert np.allclose(np.diag(matrix), 0.5)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_stationarity_of_degree_distribution(self, small_double_star):
        matrix = transition_matrix(small_double_star)
        pi = stationary_distribution(small_double_star)
        assert np.allclose(pi @ matrix, pi)

    def test_isolated_vertex_rejected(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(Exception):
            transition_matrix(graph)


class TestSpectralQuantities:
    def test_complete_graph_gap(self):
        # Normalized adjacency of K_n has second eigenvalue -1/(n-1), so the
        # gap is 1 + 1/(n-1) > 1.
        gap = spectral_gap(complete_graph(10))
        assert gap == pytest.approx(1 + 1 / 9, abs=1e-8)

    def test_cycle_gap_small(self):
        assert spectral_gap(cycle_graph(40)) < 0.1

    def test_relaxation_time_inverse_of_gap(self, small_hypercube):
        gap = spectral_gap(small_hypercube)
        assert relaxation_time(small_hypercube) == pytest.approx(1 / gap)

    def test_mixing_time_bound_increases_with_size(self):
        small = mixing_time_bound(cycle_graph(10))
        large = mixing_time_bound(cycle_graph(40))
        assert large > small

    def test_mixing_time_validates_epsilon(self, small_complete):
        with pytest.raises(ValueError):
            mixing_time_bound(small_complete, epsilon=0.0)


class TestHittingTimes:
    def test_hitting_time_zero_at_target(self, small_complete):
        hitting = expected_hitting_times(small_complete, target=3)
        assert hitting[3] == 0.0

    def test_complete_graph_hitting_time(self):
        # On K_n, the hitting time from any other vertex is n - 1.
        n = 12
        hitting = expected_hitting_times(complete_graph(n), target=0)
        for v in range(1, n):
            assert hitting[v] == pytest.approx(n - 1)

    def test_star_leaf_to_center(self):
        hitting = expected_hitting_times(star(10), target=0)
        # Every leaf reaches the center in exactly one step.
        for leaf in range(1, 11):
            assert hitting[leaf] == pytest.approx(1.0)

    def test_path_end_to_end(self):
        # Known formula: hitting time from one end of a path of length L to the
        # other is L^2.
        edges = [(i, i + 1) for i in range(4)]
        graph = Graph(5, edges, name="path5")
        hitting = expected_hitting_times(graph, target=4)
        assert hitting[0] == pytest.approx(16.0)

    def test_invalid_target_rejected(self, small_complete):
        with pytest.raises(Exception):
            expected_hitting_times(small_complete, target=99)
