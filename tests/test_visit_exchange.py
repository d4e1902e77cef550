"""Tests for the VISIT-EXCHANGE protocol."""

from __future__ import annotations

import numpy as np

from repro import simulate
from repro.core.kernels import VisitExchangeKernel, batch_generator
from repro.graphs import Graph, complete_graph, double_star, heavy_binary_tree, star
from repro.graphs.heavy_binary_tree import tree_leaves


def initialized_kernel(graph, source, seed, **kwargs):
    """A one-trial visit-exchange kernel in its round-0 state."""
    kernel = VisitExchangeKernel(**kwargs)
    kernel.initialize(graph, source, [batch_generator(seed)])
    return kernel


class TestInitialization:
    def test_agents_on_source_informed_at_round_zero(self):
        kernel = initialized_kernel(star(30), 0, 1, agent_density=2.0)
        positions, informed = kernel.positions[0], kernel.agent_informed[0]
        at_source = positions == 0
        assert at_source.any()
        assert informed[at_source].all()
        # Agents not at the source are uninformed at round zero.
        assert not informed[~at_source].any()

    def test_agent_density_controls_population(self, small_double_star):
        for density, expected in ((0.5, 20), (1.0, 40), (2.0, 80)):
            result = simulate(
                "visit-exchange", small_double_star, 0, seed=1, max_rounds=0,
                agent_density=density,
            )
            assert result.num_agents == expected

    def test_explicit_num_agents_overrides_density(self, small_double_star):
        result = simulate(
            "visit-exchange", small_double_star, 0, seed=1, max_rounds=0,
            agent_density=5.0, num_agents=7,
        )
        assert result.num_agents == 7

    def test_one_agent_per_vertex_mode(self, small_double_star):
        kernel = initialized_kernel(small_double_star, 0, 1, one_agent_per_vertex=True)
        assert kernel.num_agents() == small_double_star.num_vertices
        positions = sorted(kernel.positions[0].tolist())
        assert positions == list(range(small_double_star.num_vertices))


class TestDynamics:
    def test_completes_on_small_graphs(self, small_star, small_double_star, small_complete):
        for graph in (small_star, small_double_star, small_complete):
            result = simulate("visit-exchange", graph, source=0, seed=1)
            assert result.completed

    def test_all_agents_informed_by_completion(self):
        graph = double_star(40)
        result = simulate("visit-exchange", graph, source=2, seed=3)
        assert result.completed
        assert result.informed_agent_history[-1] == result.num_agents
        assert result.informed_vertex_history[-1] == graph.num_vertices

    def test_informed_vertices_monotone(self):
        result = simulate("visit-exchange", complete_graph(32), source=0, seed=2)
        history = result.informed_vertex_history
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_informed_agents_monotone(self):
        result = simulate("visit-exchange", double_star(40), source=2, seed=2)
        history = result.informed_agent_history
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_vertex_informed_only_by_previously_informed_agent(self):
        # After one round, the number of newly informed vertices is at most the
        # number of agents that were already informed before the round (each
        # informed agent visits exactly one vertex).
        graph = star(40)
        result = simulate("visit-exchange", graph, source=5, seed=4, max_rounds=1)
        informed_at_zero = result.informed_agent_history[0]
        newly_informed_vertices = (
            result.informed_vertex_history[1] - result.informed_vertex_history[0]
        )
        assert newly_informed_vertices <= max(informed_at_zero, 0)

    def test_lazy_mode_runs(self):
        result = simulate("visit-exchange", star(30), source=0, seed=1, lazy=True)
        assert result.completed

    def test_metadata_reports_configuration(self):
        result = simulate(
            "visit-exchange", star(20), source=0, seed=1, agent_density=2.0, lazy=True
        )
        assert result.metadata["agent_density"] == 2.0
        assert result.metadata["lazy"] is True

    def test_two_vertex_graph(self):
        graph = Graph(2, [(0, 1)])
        result = simulate("visit-exchange", graph, source=0, seed=0)
        assert result.completed
        assert result.broadcast_time <= 5


class TestPaperShapes:
    def test_fast_on_double_star(self):
        # Lemma 3(b): O(log n) — in practice a couple dozen rounds at n = 300.
        graph = double_star(300)
        times = [
            simulate("visit-exchange", graph, source=2, seed=s).broadcast_time
            for s in range(5)
        ]
        assert np.mean(times) < 60

    def test_slow_on_heavy_binary_tree(self):
        # Lemma 4(b): Omega(n).  At n = 255 the broadcast time should clearly
        # exceed anything logarithmic.
        graph = heavy_binary_tree(255)
        leaf = tree_leaves(graph)[0]
        times = [
            simulate("visit-exchange", graph, source=leaf, seed=s).broadcast_time
            for s in range(3)
        ]
        assert np.mean(times) > 60

    def test_track_edge_traversals_option(self):
        from repro.core.observers import EdgeUsageObserver, ObserverGroup

        graph = star(15)
        observer = EdgeUsageObserver()
        simulate(
            "visit-exchange", graph, source=0, seed=1, max_rounds=10,
            observers=ObserverGroup([observer]), track_edge_traversals=True,
        )
        assert observer.total_uses() > 0
        for u, v in observer.counts:
            assert graph.has_edge(u, v)


class TestDeterminism:
    def test_same_seed_same_run(self, small_double_star):
        a = simulate("visit-exchange", small_double_star, source=2, seed=13)
        b = simulate("visit-exchange", small_double_star, source=2, seed=13)
        assert a.broadcast_time == b.broadcast_time
        assert a.informed_agent_history == b.informed_agent_history
