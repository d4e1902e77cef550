"""Tests for edge-usage fairness metrics (repro.analysis.fairness)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.fairness import (
    edge_usage_from_walks,
    expected_uniform_share,
    fairness_from_counts,
    fairness_from_usage,
    gini_coefficient,
    walk_edge_usage,
)
from repro.core.observers import EdgeUsageObserver
from repro.core.rng import make_rng
from repro.graphs import complete_graph, double_star, random_regular_graph, star


class TestGiniCoefficient:
    def test_uniform_distribution_has_zero_gini(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)

    def test_totally_concentrated_distribution(self):
        # All mass on one of many items: Gini approaches 1 - 1/n.
        values = [0] * 99 + [100]
        assert gini_coefficient(values) == pytest.approx(0.99, abs=0.01)

    def test_all_zero_is_zero(self):
        assert gini_coefficient([0, 0, 0]) == 0.0

    def test_scale_invariant(self):
        a = gini_coefficient([1, 2, 3, 4])
        b = gini_coefficient([10, 20, 30, 40])
        assert a == pytest.approx(b)

    def test_more_unequal_means_larger_gini(self):
        assert gini_coefficient([1, 1, 1, 7]) > gini_coefficient([2, 2, 3, 3])

    def test_validation(self):
        with pytest.raises(ValueError):
            gini_coefficient([])
        with pytest.raises(ValueError):
            gini_coefficient([-1, 2])


class TestUniformShare:
    def test_value(self):
        assert expected_uniform_share(200) == pytest.approx(0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_uniform_share(0)


class TestFairnessFromCounts:
    def test_uniform_counts(self):
        graph = complete_graph(6)
        counts = {edge: 3 for edge in graph.edges()}
        report = fairness_from_counts(graph, counts)
        assert report.gini == pytest.approx(0.0, abs=1e-12)
        assert report.unused_edges == 0
        assert report.total_uses == 3 * graph.num_edges
        assert report.max_share == pytest.approx(expected_uniform_share(graph.num_edges))

    def test_missing_edges_count_as_zero(self):
        graph = star(5)
        report = fairness_from_counts(graph, {(0, 1): 10})
        assert report.unused_edges == 4
        assert report.max_share == pytest.approx(1.0)

    def test_non_canonical_keys_merged(self):
        graph = star(3)
        report = fairness_from_counts(graph, {(0, 1): 2, (1, 0): 3})
        assert report.total_uses == 5

    def test_single_used_edge_fields(self):
        graph = star(4)
        report = fairness_from_counts(graph, {(0, 1): 1})
        assert (report.num_edges, report.total_uses, report.unused_edges) == (4, 1, 3)
        assert report.max_share == pytest.approx(1.0)
        assert report.gini == pytest.approx(0.75)


class TestEdgeUsageFromWalks:
    def test_agents_use_edges_nearly_uniformly_on_regular_graph(self, rng):
        graph = random_regular_graph(40, 6, rng)
        report = edge_usage_from_walks(graph, rounds=300, seed=1)
        # Stationary independent walks on a regular graph use every edge at the
        # same rate; with 300 rounds x 40 agents the Gini should be small.
        assert report.gini < 0.25
        assert report.unused_edges == 0

    def test_agents_use_edges_nearly_uniformly_on_star(self):
        # The paper's point: fairness holds even on highly non-regular graphs.
        graph = star(30)
        report = edge_usage_from_walks(graph, rounds=300, seed=2, lazy=True)
        assert report.gini < 0.25

    def test_bridge_edge_gets_fair_share_on_double_star(self):
        graph = double_star(40)
        report = edge_usage_from_walks(graph, rounds=400, seed=3, lazy=True)
        # With 39 edges, a fair share is ~2.6%; the bridge must not be starved.
        assert report.min_share > 0.2 * expected_uniform_share(graph.num_edges)

    def test_num_agents_override(self):
        graph = star(10)
        report = edge_usage_from_walks(graph, num_agents=5, rounds=50, seed=0)
        assert report.total_uses <= 5 * 50


def _loop_walk_usage(graph, *, rounds, seed, lazy):
    """Edge traversal counts of the fairness walk, one step at a time."""
    rng = make_rng(seed)
    count = graph.num_vertices
    positions = rng.choice(count, size=count, p=graph.stationary_distribution())
    index = {edge: i for i, edge in enumerate(graph.edges())}
    usage = [0] * graph.num_edges
    for _ in range(rounds):
        moved = graph.sample_neighbors(positions, rng)
        if lazy:
            moved = np.where(rng.random(count) < 0.5, positions, moved)
        for old, new in zip(positions.tolist(), moved.tolist()):
            if old != new:
                usage[index[(min(old, new), max(old, new))]] += 1
        positions = moved
    return usage


class TestVectorizedCounts:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_walk_usage_equals_plain_loop(self, lazy):
        graph = double_star(40)
        usage = walk_edge_usage(graph, rounds=60, seed=5, lazy=lazy)
        assert usage.tolist() == _loop_walk_usage(graph, rounds=60, seed=5, lazy=lazy)

    def test_counts_dict_equals_usage_array(self):
        graph = star(6)
        counts = {(0, 1): 2, (3, 0): 4, (0, 3): 1, (2, 5): 9}  # (2, 5) is no edge
        usage = [0] * graph.num_edges
        for (u, v), count in counts.items():
            if graph.has_edge(u, v):
                usage[list(graph.edges()).index((min(u, v), max(u, v)))] += count
        assert fairness_from_counts(graph, counts) == fairness_from_usage(graph, usage)

    def test_observer_batches_equal_single_edges(self):
        graph = double_star(20)
        rng = np.random.default_rng(4)
        batched, single = EdgeUsageObserver(), EdgeUsageObserver()
        batched._FOLD_AT = 7  # fold mid-run too
        for _ in range(12):
            us = rng.integers(0, graph.num_vertices, size=5)
            vs = graph.sample_neighbors(us, rng)
            batched.on_edges_used(us, vs)
            for u, v in zip(us.tolist(), vs.tolist()):
                single.on_edge_used(v, u)
        assert batched.counts == single.counts
        assert batched.total_uses() == single.total_uses() == 60
        assert np.array_equal(batched.usage_array(graph), single.usage_array(graph))
