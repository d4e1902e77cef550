"""Tests for the PUSH protocol."""

from __future__ import annotations

import numpy as np

from oracle import expected_collection_time
from repro import simulate
from repro.core.observers import EdgeUsageObserver, ObserverGroup
from repro.graphs import Graph, complete_graph, double_star, star


class TestBasicBehaviour:
    def test_completes_on_small_graphs(self, small_star, small_double_star, small_complete):
        for graph in (small_star, small_double_star, small_complete):
            result = simulate("push", graph, source=0, seed=1)
            assert result.completed
            assert result.broadcast_time >= 1

    def test_two_vertex_graph_takes_one_round(self):
        graph = Graph(2, [(0, 1)])
        result = simulate("push", graph, source=0, seed=0)
        assert result.broadcast_time == 1

    def test_single_vertex_complete_at_round_zero(self):
        # A path of length 1 from either end: the other endpoint is informed in
        # round 1; starting "already complete" only happens for n = 1 graphs,
        # which the Graph type does support (no edges required? it requires
        # connectivity, so use the 1-vertex graph).
        graph = Graph(1, [])
        result = simulate("push", graph, source=0, seed=0)
        assert result.broadcast_time == 0

    def test_informed_count_monotone_and_bounded_by_doubling(self):
        graph = complete_graph(64)
        result = simulate("push", graph, source=0, seed=3)
        history = result.informed_vertex_history
        for before, after in zip(history, history[1:]):
            assert after >= before
            # Each informed vertex sends at most one message per round.
            assert after <= 2 * before

    def test_messages_counted(self):
        graph = star(10)
        result = simulate("push", graph, source=0, seed=0)
        assert result.messages_sent >= result.broadcast_time

    def test_every_vertex_informed_at_end(self):
        graph = double_star(20)
        result = simulate("push", graph, source=2, seed=0)
        assert result.informed_vertex_history[-1] == graph.num_vertices

    def test_path_broadcast_time_at_least_distance(self):
        # Information travels at most one hop per round along the path.
        edges = [(i, i + 1) for i in range(9)]
        graph = Graph(10, edges, name="path10")
        result = simulate("push", graph, source=0, seed=5)
        assert result.broadcast_time >= 9


class TestStarBehaviour:
    def test_star_mean_matches_coupon_collector(self):
        # Lemma 2(a): the center must collect all leaves.  With the center as
        # the source the expected broadcast time is exactly the coupon
        # collector expectation n * H_n.
        num_leaves = 40
        graph = star(num_leaves)
        times = [
            simulate("push", graph, source=0, seed=seed).broadcast_time
            for seed in range(30)
        ]
        expected = expected_collection_time(num_leaves)
        assert 0.7 * expected < np.mean(times) < 1.4 * expected

    def test_star_from_leaf_adds_constant_rounds(self):
        graph = star(30)
        result = simulate("push", graph, source=3, seed=2)
        assert result.completed
        assert result.broadcast_time > 30  # still coupon-collector dominated


class TestEdgeReporting:
    def test_informing_edges_form_spanning_structure(self):
        graph = double_star(20)
        observer = EdgeUsageObserver()
        simulate("push", graph, source=0, seed=4, observers=ObserverGroup([observer]))
        # Exactly n - 1 informing transmissions (each vertex informed once,
        # except the source).
        assert observer.total_uses() == graph.num_vertices - 1

    def test_reported_edges_are_graph_edges(self):
        graph = complete_graph(12)
        observer = EdgeUsageObserver()
        simulate("push", graph, source=0, seed=4, observers=ObserverGroup([observer]))
        for u, v in observer.counts:
            assert graph.has_edge(u, v)


class TestDeterminism:
    def test_same_seed_same_run(self, small_double_star):
        a = simulate("push", small_double_star, source=2, seed=9)
        b = simulate("push", small_double_star, source=2, seed=9)
        assert a.broadcast_time == b.broadcast_time
        assert a.informed_vertex_history == b.informed_vertex_history
