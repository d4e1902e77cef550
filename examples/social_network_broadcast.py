"""Rumor spreading on a social-network-like graph, with and without agents.

The introduction of the paper motivates push-pull with graph models of social
networks, where it is known to be fast.  This example builds a
preferential-attachment graph (heavy-tailed degrees, like a social network),
broadcasts from both a hub and a low-degree peripheral vertex, and compares
the standard protocols with the agent-based ones and the hybrid.

It also reports the edge-usage fairness of each mechanism: the agent
population uses every edge at a near-uniform rate, whereas push-pull's useful
traffic concentrates around the hubs.

Run with::

    python examples/social_network_broadcast.py
"""

from __future__ import annotations

import numpy as np

from repro import run_batch, simulate
from repro.analysis import format_table
from repro.analysis.fairness import edge_usage_from_walks, fairness_from_counts
from repro.core.observers import EdgeUsageObserver, ObserverGroup
from repro.core.rng import make_rng
from repro.graphs import preferential_attachment


def broadcast_table(graph, source: int, label: str) -> None:
    """Print mean broadcast times for every protocol from one source."""
    rows = []
    for protocol in ["push", "push-pull", "visit-exchange", "meet-exchange", "hybrid-ppull-visitx"]:
        times = []
        for trial in range(3):
            result = simulate(protocol, graph, source=source, seed=trial)
            if result.completed:
                times.append(result.broadcast_time)
        mean = sum(times) / len(times) if times else float("inf")
        rows.append([protocol, len(times), mean])
    print(
        format_table(
            ["protocol", "completed trials", "mean rounds"],
            rows,
            title=f"Broadcast from {label} (vertex {source})",
        )
    )
    print()


def fairness_comparison(graph) -> None:
    """Compare edge-usage fairness of agents vs push-pull on the social graph."""
    agent_report = edge_usage_from_walks(graph, rounds=100, seed=0)
    observer = EdgeUsageObserver()
    run_batch(
        "push-pull",
        graph,
        0,
        seeds=[make_rng(0)],
        observers=[ObserverGroup([observer])],
        track_all_exchanges=True,
    )
    ppull_report = fairness_from_counts(graph, observer.counts)
    rows = [
        ["agents (all traversals)", agent_report.gini, agent_report.max_share, agent_report.unused_edges],
        ["push-pull (sampled edges)", ppull_report.gini, ppull_report.max_share, ppull_report.unused_edges],
    ]
    print(
        format_table(
            ["mechanism", "gini", "max edge share", "unused edges"],
            rows,
            title="Edge-usage fairness (lower gini = fairer)",
        )
    )


def main() -> None:
    """Build the social graph, compare protocols from a hub and from the periphery."""
    graph = preferential_attachment(2000, 3, np.random.default_rng(7))
    degrees = graph.degrees
    hub = int(np.argmax(degrees))
    periphery = int(np.argmin(degrees))
    print(
        f"Preferential-attachment graph: n={graph.num_vertices}, m={graph.num_edges}, "
        f"max degree {int(degrees.max())}, min degree {int(degrees.min())}\n"
    )
    broadcast_table(graph, hub, "the highest-degree hub")
    broadcast_table(graph, periphery, "a peripheral low-degree vertex")
    fairness_comparison(graph)


if __name__ == "__main__":
    main()
