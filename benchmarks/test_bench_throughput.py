"""Micro-benchmarks of simulator throughput (not tied to a paper claim).

These quantify the per-round cost of each protocol implementation on a
moderately large regular graph so that performance regressions in the hot
paths (vectorized neighbor sampling, agent stepping) show up in benchmark
history even when the claim-level benchmarks still pass.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.batch import run_batch
from repro.core.kernels import KERNEL_REGISTRY, batch_generator
from repro.core.rng import make_rng
from repro.graphs import random_regular_graph

N = 4096


@pytest.fixture(scope="module")
def graph():
    degree = max(4, int(2 * math.log2(N)))
    if (N * degree) % 2:
        degree += 1
    return random_regular_graph(N, degree, np.random.default_rng(0))


def ten_rounds_of(protocol, graph):
    """A one-trial kernel after round 0, and a closure advancing it ten rounds."""
    kernel = KERNEL_REGISTRY[protocol]()
    kernel.initialize(graph, 0, [batch_generator(make_rng(1))])

    def ten_rounds():
        for _ in range(10):
            kernel.step(1)

    return ten_rounds


class TestRoundThroughput:
    def test_push_rounds(self, benchmark, graph):
        benchmark(ten_rounds_of("push", graph))

    def test_push_pull_rounds(self, benchmark, graph):
        benchmark(ten_rounds_of("push-pull", graph))

    def test_visit_exchange_rounds(self, benchmark, graph):
        benchmark(ten_rounds_of("visit-exchange", graph))

    def test_meet_exchange_rounds(self, benchmark, graph):
        benchmark(ten_rounds_of("meet-exchange", graph))


class TestSubstrateThroughput:
    def test_agent_stepping(self, benchmark, graph):
        # One walk step of a one-trial visit-exchange kernel's N agents.
        kernel = KERNEL_REGISTRY["visit-exchange"](num_agents=N)
        kernel.initialize(graph, 0, [batch_generator(make_rng(2))])

        def walk_step():
            kernel._begin_round()
            kernel.positions[:1] = kernel._walk_rows(1)

        benchmark(walk_step)

    def test_vectorized_neighbor_sampling(self, benchmark, graph):
        rng = make_rng(3)
        vertices = np.arange(graph.num_vertices)
        benchmark(lambda: graph.sample_neighbors(vertices, rng))

    def test_full_push_pull_run(self, benchmark, graph):
        def run():
            return run_batch("push-pull", graph, 0, seeds=[make_rng(5)])

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert result.completed.all()
