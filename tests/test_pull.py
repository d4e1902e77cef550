"""Tests for the PULL protocol (ablation baseline)."""

from __future__ import annotations

import numpy as np

from repro import simulate
from repro.graphs import Graph, complete_graph, star


class TestBasicBehaviour:
    def test_completes_on_complete_graph(self):
        result = simulate("pull", complete_graph(32), source=0, seed=1)
        assert result.completed

    def test_star_from_center_takes_one_round(self):
        # Every leaf pulls from its only neighbor, the informed center.
        result = simulate("pull", star(40), source=0, seed=0)
        assert result.broadcast_time == 1

    def test_star_from_leaf_is_slow_like_push_is(self):
        # From a leaf, the center pulls from a random leaf each round, so it
        # takes ~n rounds before the center even becomes informed... actually
        # the center has degree n and pulls from the single informed leaf with
        # probability 1/n per round; after that one more round suffices.
        graph = star(30)
        times = [
            simulate("pull", graph, source=5, seed=seed).broadcast_time for seed in range(10)
        ]
        assert np.mean(times) > 10

    def test_informed_count_monotone(self):
        result = simulate("pull", complete_graph(32), source=0, seed=4)
        history = result.informed_vertex_history
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_messages_counted_for_uninformed_only(self):
        graph = complete_graph(8)
        result = simulate("pull", graph, source=0, seed=2)
        # In the first round 7 uninformed vertices pull.
        assert result.messages_sent >= 7

    def test_every_vertex_informed_at_end(self):
        result = simulate("pull", complete_graph(16), source=3, seed=0)
        assert result.informed_vertex_history[-1] == 16

    def test_two_vertex_graph(self):
        result = simulate("pull", Graph(2, [(0, 1)]), source=0, seed=0)
        assert result.broadcast_time == 1

    def test_same_seed_reproducible(self):
        graph = complete_graph(20)
        assert (
            simulate("pull", graph, source=0, seed=7).broadcast_time
            == simulate("pull", graph, source=0, seed=7).broadcast_time
        )
