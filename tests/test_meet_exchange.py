"""Tests for the MEET-EXCHANGE protocol."""

from __future__ import annotations

import numpy as np

from repro import simulate
from repro.core.kernels import MeetExchangeKernel, batch_generator
from repro.graphs import Graph, complete_graph, double_star, heavy_binary_tree, star
from repro.graphs.heavy_binary_tree import tree_leaves
from repro.graphs.siamese_tree import siamese_heavy_binary_tree


def round_zero(graph, source, seed, **kwargs):
    """A one-trial meet-exchange run stopped after round 0."""
    return simulate("meet-exchange", graph, source, seed=seed, max_rounds=0, **kwargs)


class TestInitialization:
    def test_agents_on_source_informed_at_round_zero(self):
        kernel = MeetExchangeKernel(agent_density=3.0)
        kernel.initialize(star(30), 0, [batch_generator(1)])
        at_source = kernel.positions[0] == 0
        assert at_source.any()
        assert kernel.agent_informed[0][at_source].all()
        assert not kernel.agent_informed[0][~at_source].any()

    def test_lazy_enabled_automatically_on_bipartite_graphs(self):
        assert round_zero(star(20), 0, 1).metadata["lazy"] is True

    def test_lazy_disabled_automatically_on_non_bipartite_graphs(self):
        assert round_zero(complete_graph(16), 0, 1).metadata["lazy"] is False

    def test_explicit_lazy_override(self):
        assert round_zero(complete_graph(16), 0, 1, lazy=True).metadata["lazy"] is True

    def test_source_keeps_rumor_until_first_visit(self):
        # A single agent: the source keeps the rumor exactly when the agent
        # did not start on it (and so is still uninformed at round 0).
        graph = Graph(3, [(0, 1), (1, 2)], name="path3")
        outcomes = set()
        for seed in range(8):
            result = round_zero(graph, 0, seed, num_agents=1, lazy=True)
            started_on_source = result.informed_agent_history[0] == 1
            assert result.metadata["source_still_informs"] is not started_on_source
            outcomes.add(started_on_source)
        assert outcomes == {True, False}


class TestDynamics:
    def test_completes_on_small_graphs(self, small_star, small_double_star, small_complete):
        for graph in (small_star, small_double_star, small_complete):
            result = simulate("meet-exchange", graph, source=0, seed=1)
            assert result.completed

    def test_completion_means_all_agents_informed(self):
        graph = double_star(40)
        result = simulate("meet-exchange", graph, source=2, seed=3)
        assert result.completed
        assert result.informed_agent_history[-1] == result.num_agents

    def test_informed_agents_monotone(self):
        result = simulate("meet-exchange", complete_graph(32), source=0, seed=2)
        history = result.informed_agent_history
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_vertex_count_reported_as_one(self):
        result = simulate("meet-exchange", star(20), source=0, seed=1)
        assert result.informed_vertex_history[-1] == 1

    def test_no_chaining_within_a_round(self):
        # Agents informed this round must not inform others until next round:
        # the per-round growth is bounded by the number of agents co-located
        # with previously informed agents, which is at most the total number of
        # agents... the sharpest cheap invariant is that an isolated newly
        # informed agent cannot instantly inform the whole population.  We
        # check growth never exceeds the population size and the history is
        # consistent.
        result = simulate("meet-exchange", complete_graph(64), source=0, seed=7)
        history = result.informed_agent_history
        assert history[-1] == result.num_agents
        assert all(b - a <= result.num_agents for a, b in zip(history, history[1:]))

    def test_single_agent_never_completes_if_others_missing(self):
        # With exactly one agent there is nobody to meet, but the single agent
        # is the whole population: once it picks up the rumor at the source the
        # process is complete.
        graph = complete_graph(8)
        result = simulate("meet-exchange", graph, 0, seed=2, max_rounds=200, num_agents=1)
        assert result.completed

    def test_agent_density_controls_population(self, small_double_star):
        assert round_zero(small_double_star, 0, 1, agent_density=0.5).num_agents == 20

    def test_one_agent_per_vertex_mode(self, small_complete):
        result = round_zero(small_complete, 0, 1, one_agent_per_vertex=True)
        assert result.num_agents == small_complete.num_vertices


class TestPaperShapes:
    def test_fast_on_star(self):
        # Lemma 2(d): O(log n) with lazy walks.
        graph = star(300)
        times = [
            simulate("meet-exchange", graph, source=3, seed=s).broadcast_time
            for s in range(5)
        ]
        assert np.mean(times) < 60

    def test_fast_on_heavy_tree_from_leaf(self):
        # Lemma 4(c): O(log n) from a leaf source.
        graph = heavy_binary_tree(255)
        leaf = tree_leaves(graph)[0]
        times = [
            simulate("meet-exchange", graph, source=leaf, seed=s).broadcast_time
            for s in range(3)
        ]
        assert np.mean(times) < 80

    def test_slow_on_siamese_trees(self):
        # Lemma 8(c): Omega(n) — information must cross the root.  The
        # broadcast-time distribution is heavy tailed here, so estimate the
        # mean from a real trial count (cheap on the batched backend) instead
        # of a couple of stream-sensitive single runs.
        from repro import simulate_batch
        from repro.graphs.siamese_tree import left_leaves

        graph = siamese_heavy_binary_tree(127)
        source = left_leaves(graph)[0]
        result = simulate_batch(
            "meet-exchange", graph, source, trials=24, seed=0, max_rounds=100000
        )
        assert result.completed.all()
        assert result.mean_broadcast_time() > 80


class TestDeterminism:
    def test_same_seed_same_run(self, small_double_star):
        a = simulate("meet-exchange", small_double_star, source=2, seed=17)
        b = simulate("meet-exchange", small_double_star, source=2, seed=17)
        assert a.broadcast_time == b.broadcast_time
