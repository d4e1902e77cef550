"""Tests for the hybrid push-pull + visit-exchange protocol."""

from __future__ import annotations

import numpy as np

from repro import simulate
from repro.graphs import double_star, heavy_binary_tree, star
from repro.graphs.heavy_binary_tree import tree_leaves


class TestBasicBehaviour:
    def test_completes_on_small_graphs(self, small_star, small_double_star, small_heavy_tree):
        for graph in (small_star, small_double_star, small_heavy_tree):
            result = simulate("hybrid-ppull-visitx", graph, source=0, seed=1)
            assert result.completed

    def test_informed_vertices_monotone(self):
        result = simulate("hybrid-ppull-visitx", double_star(60), source=2, seed=2)
        history = result.informed_vertex_history
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_messages_accounted_for_push_pull_part(self):
        graph = star(20)
        result = simulate("hybrid-ppull-visitx", graph, source=0, seed=1)
        assert result.messages_sent == graph.num_vertices * result.rounds_executed

    def test_agents_created_with_requested_density(self, small_double_star):
        result = simulate(
            "hybrid-ppull-visitx", small_double_star, 0, seed=1, max_rounds=0, agent_density=2.0
        )
        assert result.num_agents == 2 * small_double_star.num_vertices

    def test_metadata_fields(self):
        result = simulate("hybrid-ppull-visitx", star(20), source=0, seed=1, lazy=True)
        assert result.metadata["lazy"] is True

    def test_same_seed_reproducible(self, small_double_star):
        a = simulate("hybrid-ppull-visitx", small_double_star, source=2, seed=3)
        b = simulate("hybrid-ppull-visitx", small_double_star, source=2, seed=3)
        assert a.broadcast_time == b.broadcast_time


class TestInheritsTheFasterMechanism:
    def test_fast_on_double_star_where_push_pull_is_slow(self):
        graph = double_star(300)
        hybrid_times = [
            simulate("hybrid-ppull-visitx", graph, source=2, seed=s).broadcast_time
            for s in range(5)
        ]
        ppull_times = [
            simulate("push-pull", graph, source=2, seed=s).broadcast_time for s in range(5)
        ]
        assert np.mean(hybrid_times) < np.mean(ppull_times)
        assert np.mean(hybrid_times) < 60

    def test_fast_on_heavy_tree_where_visitx_is_slow(self):
        graph = heavy_binary_tree(255)
        leaf = tree_leaves(graph)[0]
        hybrid_times = [
            simulate("hybrid-ppull-visitx", graph, source=leaf, seed=s).broadcast_time
            for s in range(3)
        ]
        visitx_times = [
            simulate("visit-exchange", graph, source=leaf, seed=s).broadcast_time
            for s in range(3)
        ]
        assert np.mean(hybrid_times) < np.mean(visitx_times)
        assert np.mean(hybrid_times) < 60
