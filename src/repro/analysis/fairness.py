"""Edge-usage fairness metrics.

Section 1 of the paper attributes the strength of the agent-based protocols to
their *locally fair* bandwidth use: because the walks are independent and
stationary, every edge is traversed with the same frequency.  Push-pull, by
contrast, can starve crucial edges — on the double star the single bridge edge
is selected with probability only ``O(1/n)`` per round.

These metrics quantify that difference from edge-usage counts collected by
:class:`repro.core.observers.EdgeUsageObserver` or directly from agent
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.rng import make_rng
from ..graphs.graph import Graph

__all__ = [
    "FairnessReport",
    "fairness_from_counts",
    "edge_usage_from_walks",
    "gini_coefficient",
    "expected_uniform_share",
]


def gini_coefficient(values) -> float:
    """Gini coefficient of a non-negative sample (0 = perfectly even).

    Used as the headline unfairness number: near 0 for the agent protocols,
    markedly higher for push/push-pull on the highly non-regular examples.
    """
    data = np.sort(np.asarray(list(values), dtype=float))
    if data.size == 0:
        raise ValueError("cannot compute the Gini coefficient of an empty sample")
    if np.any(data < 0):
        raise ValueError("values must be non-negative")
    total = data.sum()
    if total == 0:
        return 0.0
    cumulative = np.cumsum(data)
    # Standard formula: G = (n + 1 - 2 * sum(cum)/total) / n
    n = data.size
    return float((n + 1 - 2 * (cumulative.sum() / total)) / n)


def expected_uniform_share(num_edges: int) -> float:
    """Share of traffic each edge would receive under perfectly fair usage."""
    if num_edges <= 0:
        raise ValueError("need at least one edge")
    return 1.0 / num_edges


@dataclass(frozen=True)
class FairnessReport:
    """Distributional description of per-edge usage counts."""

    num_edges: int
    total_uses: int
    gini: float
    max_share: float
    min_share: float
    coefficient_of_variation: float
    unused_edges: int

    def describe(self) -> str:
        """One-line human readable rendering."""
        return (
            f"edges={self.num_edges} uses={self.total_uses} gini={self.gini:.3f} "
            f"max_share={self.max_share:.4f} (uniform would be "
            f"{expected_uniform_share(self.num_edges):.4f}) unused={self.unused_edges}"
        )


def fairness_from_counts(graph: Graph, counts: Dict[Tuple[int, int], int]) -> FairnessReport:
    """Build a :class:`FairnessReport` from per-edge usage counts.

    Edges absent from ``counts`` contribute zero uses; keys are canonicalized
    to ``(min(u, v), max(u, v))``.
    """
    usage = np.zeros(graph.num_edges, dtype=float)
    canonical = {}
    for (u, v), value in counts.items():
        canonical[(min(u, v), max(u, v))] = canonical.get((min(u, v), max(u, v)), 0) + value
    for index, edge in enumerate(graph.edges()):
        usage[index] = canonical.get(edge, 0)
    total = float(usage.sum())
    shares = usage / total if total > 0 else usage
    mean = usage.mean() if usage.size else 0.0
    cv = float(usage.std() / mean) if mean > 0 else 0.0
    return FairnessReport(
        num_edges=graph.num_edges,
        total_uses=int(total),
        gini=gini_coefficient(usage),
        max_share=float(shares.max()) if total > 0 else 0.0,
        min_share=float(shares.min()) if total > 0 else 0.0,
        coefficient_of_variation=cv,
        unused_edges=int(np.count_nonzero(usage == 0)),
    )


def edge_usage_from_walks(
    graph: Graph,
    *,
    num_agents: Optional[int] = None,
    rounds: int = 200,
    seed=0,
    lazy: bool = False,
) -> FairnessReport:
    """Measure per-edge traversal counts of stationary independent random walks.

    This is the "bandwidth" view of fairness: it counts every traversal of the
    agents of a visit-exchange-style population, regardless of whether the
    traversal carried new information.  The paper's fairness claim is exactly
    that this distribution is (near) uniform over edges.  The walk draws
    from one ``Generator``: stationary placement, then per round a neighbor
    sample for every agent and, when ``lazy``, one stay-put coin per agent.
    """
    rng = make_rng(seed)
    count = int(num_agents if num_agents is not None else graph.num_vertices)
    if count < 1:
        raise ValueError("need at least one agent")
    positions = rng.choice(
        graph.num_vertices, size=count, p=graph.stationary_distribution()
    )
    edge_index = {edge: i for i, edge in enumerate(graph.edges())}
    usage = np.zeros(graph.num_edges, dtype=np.int64)

    for _ in range(int(rounds)):
        moved = graph.sample_neighbors(positions, rng)
        if lazy:
            moved = np.where(rng.random(count) < 0.5, positions, moved)
        for old, new in zip(positions.tolist(), moved.tolist()):
            if old != new:
                usage[edge_index[(min(old, new), max(old, new))]] += 1
        positions = moved

    counts = {edge: int(usage[i]) for edge, i in edge_index.items()}
    return fairness_from_counts(graph, counts)
