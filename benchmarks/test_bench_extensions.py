"""Benchmarks for the extension scenarios (multi-rumor pipeline, agent churn).

These do not reproduce a specific table of the paper; they quantify the two
settings the paper motivates or leaves open:

* a rumor *pipeline* served by one shared agent population (Section 1's
  motivation for the stationary-start assumption) — per-rumor latency should
  stay logarithmic even with many rumors in flight, and
* a dynamic agent population with churn and a mass failure (Section 9's
  fault-tolerance suggestion) — the broadcast time should degrade only by a
  constant factor.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.extensions import (
    DynamicAgentsSimulation,
    MultiRumorVisitExchange,
    RumorInjection,
)
from repro.graphs import random_regular_graph


@pytest.fixture(scope="module")
def graph():
    n = 512
    degree = max(4, int(2 * math.log2(n)))
    if (n * degree) % 2:
        degree += 1
    return random_regular_graph(n, degree, np.random.default_rng(17))


class TestMultiRumorPipeline:
    def test_pipeline_latency_stays_logarithmic(self, benchmark, graph):
        rng = np.random.default_rng(1)
        injections = [
            RumorInjection(5 * i, int(rng.integers(graph.num_vertices))) for i in range(10)
        ]

        def run():
            return MultiRumorVisitExchange().run(graph, injections, seed=2)

        result = benchmark.pedantic(run, rounds=2, iterations=1)
        assert result.all_completed
        assert result.max_broadcast_time() < 10 * math.log2(graph.num_vertices)


class TestDynamicPopulation:
    def test_churn_costs_only_a_constant_factor(self, benchmark, graph):
        measurements = {}

        def run():
            static = np.mean(
                [
                    DynamicAgentsSimulation(death_rate=0.0, birth_rate=0.0)
                    .run(graph, 0, seed=s)
                    .broadcast_time
                    for s in range(3)
                ]
            )
            churned = np.mean(
                [
                    DynamicAgentsSimulation(death_rate=0.05).run(graph, 0, seed=s).broadcast_time
                    for s in range(3)
                ]
            )
            measurements["static"] = float(static)
            measurements["churned"] = float(churned)
            return measurements

        benchmark.pedantic(run, rounds=1, iterations=1)
        assert measurements["churned"] < 4 * measurements["static"] + 10

    def test_recovery_from_mass_failure(self, benchmark, graph):
        def run():
            return DynamicAgentsSimulation(
                death_rate=0.05, failure_round=5, failure_fraction=0.8
            ).run(graph, 0, seed=9)

        result = benchmark.pedantic(run, rounds=2, iterations=1)
        assert result.completed
        assert result.broadcast_time < 20 * math.log2(graph.num_vertices)
