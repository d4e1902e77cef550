"""Tests for the agent walk of the agent kernels (repro.core.kernels.agent).

The walk is exercised through a one-trial visit-exchange kernel: placement
happens in ``initialize`` and ``step(1)`` advances every agent by one step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import default_agent_count
from repro.core.kernels import VisitExchangeKernel, batch_generator
from repro.graphs import Graph, star


def walk_kernel(graph, num_agents=None, *, seed=0, **kwargs):
    """A one-trial visit-exchange kernel after round 0."""
    kernel = VisitExchangeKernel(num_agents=num_agents, **kwargs)
    kernel.initialize(graph, 0, [batch_generator(seed)])
    return kernel


class TestDefaultAgentCount:
    def test_density_one_matches_vertex_count(self, small_star):
        assert default_agent_count(small_star) == small_star.num_vertices

    def test_density_scaling(self, small_star):
        assert default_agent_count(small_star, 2.0) == 2 * small_star.num_vertices
        assert default_agent_count(small_star, 0.5) == round(0.5 * small_star.num_vertices)

    def test_minimum_one_agent(self):
        graph = Graph(2, [(0, 1)])
        assert default_agent_count(graph, 0.01) == 1

    def test_rejects_non_positive_density(self, small_star):
        with pytest.raises(ValueError):
            default_agent_count(small_star, 0)


class TestConstruction:
    def test_stationary_placement_counts(self, small_heavy_tree):
        kernel = walk_kernel(small_heavy_tree, 100)
        assert kernel.num_agents() == 100
        assert kernel.positions.shape == (1, 100)
        assert np.all(kernel.positions >= 0)
        assert np.all(kernel.positions < small_heavy_tree.num_vertices)

    def test_stationary_placement_prefers_high_degree(self):
        # On the star, the center has half the total degree, so roughly half of
        # a large agent population starts there.
        kernel = walk_kernel(star(100), 4000, seed=1)
        at_center = int(np.count_nonzero(kernel.positions == 0))
        assert 1700 < at_center < 2300

    def test_one_per_vertex(self, small_double_star):
        kernel = walk_kernel(small_double_star, one_agent_per_vertex=True)
        assert kernel.num_agents() == small_double_star.num_vertices
        assert kernel.positions[0].tolist() == list(range(small_double_star.num_vertices))

    def test_rejects_zero_agents(self, small_star):
        with pytest.raises(ValueError):
            walk_kernel(small_star, 0)


class TestDynamics:
    def test_step_moves_to_neighbors(self, small_heavy_tree):
        kernel = walk_kernel(small_heavy_tree, 50, seed=2)
        previous = kernel.positions[0].copy()
        kernel.step(1)
        for old, new in zip(previous.tolist(), kernel.positions[0].tolist()):
            assert small_heavy_tree.has_edge(old, new)

    def test_lazy_step_sometimes_stays(self, small_star):
        kernel = walk_kernel(small_star, 200, seed=3, lazy=True)
        kernel.positions[:] = 1
        kernel.step(1)
        stayed = int(np.count_nonzero(kernel.positions == 1))
        moved = int(np.count_nonzero(kernel.positions == 0))
        assert stayed + moved == 200
        assert 60 < stayed < 140  # roughly half stay put

    def test_non_lazy_step_never_stays_on_star_leaf(self, small_star):
        kernel = walk_kernel(small_star, 50, seed=4)
        kernel.positions[:] = 1
        kernel.step(1)
        assert np.all(kernel.positions == 0)

    def test_stationarity_preserved_over_steps(self):
        # After stepping, the occupancy distribution should still track the
        # stationary distribution (within sampling noise): on the star, about
        # half the agents occupy the center after every even number of steps
        # from stationarity.
        kernel = walk_kernel(star(50), 5000, seed=5)
        for _ in range(4):
            kernel.step(1)
        at_center = int(np.count_nonzero(kernel.positions == 0))
        assert 2200 < at_center < 2800
