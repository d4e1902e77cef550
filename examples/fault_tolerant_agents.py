"""Extensions in action: rumor pipelines and fault-tolerant agent populations.

Two scenarios beyond the paper's core model, both implemented in
``repro.extensions``:

1. **A rumor pipeline** — the setting that motivates the paper's
   stationary-start assumption: one agent population perpetually walks the
   graph while new rumors are injected every few rounds at random sources; we
   measure the per-rumor delivery latency.

2. **Agent churn and failures** — the fault-tolerance direction from the
   paper's open-problems section: agents die at a constant rate (plus one
   catastrophic failure that wipes out 80% of them mid-broadcast) while new
   agents are born at a proportional rate; we measure how much the broadcast
   time degrades.

Run with::

    python examples/fault_tolerant_agents.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.extensions import (
    DynamicAgentsSimulation,
    MultiRumorVisitExchange,
    RumorInjection,
)
from repro.graphs import random_regular_graph


def build_graph(n: int = 512):
    """A random regular graph in the paper's d = Theta(log n) regime."""
    degree = max(4, int(2 * np.log2(n)))
    if (n * degree) % 2:
        degree += 1
    return random_regular_graph(n, degree, np.random.default_rng(11))


def rumor_pipeline(graph) -> None:
    """Inject a new rumor every 5 rounds and report per-rumor latencies."""
    rng = np.random.default_rng(3)
    injections = [
        RumorInjection(round_index=5 * i, source=int(rng.integers(graph.num_vertices)), label=f"rumor-{i}")
        for i in range(10)
    ]
    result = MultiRumorVisitExchange().run(graph, injections, seed=5)

    rows = []
    for injection, latency in zip(result.injections, result.broadcast_times):
        rows.append([injection.label, injection.round_index, injection.source, latency])
    print(
        format_table(
            ["rumor", "injected at round", "source", "delivery latency (rounds)"],
            rows,
            title=f"Rumor pipeline on {graph.name} with {result.num_agents} shared agents",
        )
    )
    print(
        f"\nMean latency {result.mean_broadcast_time():.1f} rounds, max "
        f"{result.max_broadcast_time()} rounds — each rumor is delivered in "
        "logarithmic time even though the agents serve ten of them at once.\n"
    )


def churn_and_failures(graph) -> None:
    """Compare the static population with churned and failure-struck ones."""
    scenarios = [
        ("static population", DynamicAgentsSimulation(death_rate=0.0, birth_rate=0.0)),
        ("5% churn per round", DynamicAgentsSimulation(death_rate=0.05)),
        (
            "5% churn + 80% wipe-out at round 5",
            DynamicAgentsSimulation(death_rate=0.05, failure_round=5, failure_fraction=0.8),
        ),
    ]
    rows = []
    for label, simulator in scenarios:
        times = []
        min_population = None
        for seed in range(5):
            result = simulator.run(graph, 0, seed=seed)
            assert result.completed
            times.append(result.broadcast_time)
            min_population = (
                result.min_population
                if min_population is None
                else min(min_population, result.min_population)
            )
        rows.append([label, float(np.mean(times)), min(times), max(times), min_population])
    print(
        format_table(
            ["scenario", "mean rounds", "min", "max", "lowest population seen"],
            rows,
            title="Broadcast time under agent churn and failures",
        )
    )
    print(
        "\nAs the open-problems section of the paper suggests, a dynamic "
        "population in which births balance deaths tolerates both steady churn "
        "and a large one-off failure at a modest constant-factor cost."
    )


def main() -> None:
    graph = build_graph(512)
    rumor_pipeline(graph)
    churn_and_failures(graph)


if __name__ == "__main__":
    main()
