"""Benchmark / reproduction of the local-fairness claim (Section 1).

The paper attributes the agent protocols' strength to locally fair bandwidth
use: stationary independent walks traverse every edge at the same rate, while
push-pull samples the double star's bridge edge with probability only O(1/n)
per round.  The harness measures per-edge usage distributions for both
mechanisms on the star, the double star and a random regular graph.
"""

from __future__ import annotations

from repro.analysis.fairness import expected_uniform_share
from repro.experiments.fairness_experiment import run_fairness_experiment


class TestShape:
    def test_agents_fair_everywhere_and_push_pull_starves_the_bridge(self, benchmark):
        def run():
            return run_fairness_experiment(
                size=256, walk_rounds=200, push_pull_trials=3, base_seed=1
            )

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert set(result.reports) == {"star", "double-star", "random-regular"}

        # The agent population uses every edge, nearly uniformly, on all three
        # topologies (including the highly non-regular ones).
        for graph_label in result.reports:
            report = result.reports[graph_label]["agents (all traversals)"]
            assert report.gini < 0.3, f"agents unfair on {graph_label}"
            assert report.unused_edges == 0

        # On the double star push-pull gives the bridge edge a tiny share of
        # its sampled exchanges, while the agents give it a near-fair share.
        agents = result.reports["double-star"]["agents (all traversals)"]
        ppull = result.reports["double-star"]["push-pull (sampled edges)"]
        uniform = expected_uniform_share(agents.num_edges)
        assert agents.min_share > 0.2 * uniform
        assert ppull.min_share < 0.1 * uniform

        # On a regular graph push-pull's sampling is symmetric, so its edge
        # usage is as fair as the agents' — the unfairness is a property of the
        # skewed topologies, which is exactly the paper's framing.
        regular_ppull = result.reports["random-regular"]["push-pull (sampled edges)"]
        assert regular_ppull.gini < 0.35
