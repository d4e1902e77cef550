"""Tests for the PUSH-PULL protocol."""

from __future__ import annotations

import numpy as np

from repro import simulate
from repro.core.observers import EdgeUsageObserver, ObserverGroup
from repro.graphs import Graph, complete_graph, double_star, star


class TestBasicBehaviour:
    def test_completes_on_small_graphs(self, small_star, small_double_star, small_complete):
        for graph in (small_star, small_double_star, small_complete):
            result = simulate("push-pull", graph, source=0, seed=1)
            assert result.completed

    def test_star_from_center_takes_one_round_of_pulls(self):
        # Lemma 2(b): every leaf pulls from the center, so one round suffices
        # when the source is the center.
        graph = star(50)
        result = simulate("push-pull", graph, source=0, seed=0)
        assert result.broadcast_time == 1

    def test_star_from_leaf_takes_at_most_two_rounds(self):
        # Lemma 2(b): T_ppull <= 2 on the star.
        graph = star(50)
        for seed in range(10):
            result = simulate("push-pull", graph, source=7, seed=seed)
            assert result.broadcast_time <= 2

    def test_faster_than_push_on_the_star(self):
        graph = star(60)
        push_time = simulate("push", graph, source=1, seed=3).broadcast_time
        ppull_time = simulate("push-pull", graph, source=1, seed=3).broadcast_time
        assert ppull_time < push_time

    def test_informed_count_monotone(self):
        graph = complete_graph(32)
        result = simulate("push-pull", graph, source=0, seed=2)
        history = result.informed_vertex_history
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_messages_are_n_per_round(self):
        graph = complete_graph(16)
        result = simulate("push-pull", graph, source=0, seed=1)
        assert result.messages_sent == 16 * result.rounds_executed

    def test_every_vertex_informed_at_end(self):
        graph = double_star(30)
        result = simulate("push-pull", graph, source=5, seed=0)
        assert result.informed_vertex_history[-1] == graph.num_vertices

    def test_two_vertex_graph(self):
        graph = Graph(2, [(0, 1)])
        result = simulate("push-pull", graph, source=1, seed=0)
        assert result.broadcast_time == 1


class TestDoubleStarSlowness:
    def test_double_star_needs_many_rounds(self):
        # Lemma 3(a): the bridge is sampled with probability ~4/n per round, so
        # the broadcast time is typically much larger than logarithmic.
        graph = double_star(200)
        times = [
            simulate("push-pull", graph, source=2, seed=seed).broadcast_time
            for seed in range(10)
        ]
        assert np.mean(times) > 15  # >> log2(200) would be ~7.6

    def test_bridge_edge_is_used(self):
        graph = double_star(40)
        observer = EdgeUsageObserver()
        simulate("push-pull", graph, source=2, seed=8, observers=ObserverGroup([observer]))
        assert (0, 1) in observer.counts  # information must cross the bridge


class TestDominanceOverPush:
    def test_never_slower_than_push_on_average(self):
        # Push-pull includes the push direction, so on any graph its mean
        # broadcast time is at most push's (up to sampling noise).
        for graph in (star(40), double_star(60), complete_graph(24)):
            push_mean = np.mean(
                [simulate("push", graph, source=2, seed=s).broadcast_time for s in range(5)]
            )
            ppull_mean = np.mean(
                [
                    simulate("push-pull", graph, source=2, seed=s).broadcast_time
                    for s in range(5)
                ]
            )
            assert ppull_mean <= push_mean * 1.2


class TestDeterminism:
    def test_same_seed_same_run(self, small_double_star):
        a = simulate("push-pull", small_double_star, source=2, seed=11)
        b = simulate("push-pull", small_double_star, source=2, seed=11)
        assert a.broadcast_time == b.broadcast_time
