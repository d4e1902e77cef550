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
    "fairness_from_usage",
    "edge_usage_from_walks",
    "walk_edge_usage",
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


def fairness_from_usage(graph: Graph, usage) -> FairnessReport:
    """Build a :class:`FairnessReport` from per-edge usage counts aligned with
    ``graph.edges()`` iteration order."""
    usage = np.asarray(usage, dtype=float)
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


def fairness_from_counts(graph: Graph, counts: Dict[Tuple[int, int], int]) -> FairnessReport:
    """Build a :class:`FairnessReport` from per-edge usage counts.

    Edges absent from ``counts`` contribute zero uses; ``(u, v)`` and
    ``(v, u)`` count for the same edge, and pairs that are not edges of
    ``graph`` are ignored.
    """
    pairs = np.array(list(counts), dtype=np.int64).reshape(-1, 2)
    values = np.array(list(counts.values()), dtype=float)
    ids = graph.edge_ids(pairs[:, 0], pairs[:, 1])
    found = ids >= 0
    usage = np.bincount(ids[found], weights=values[found], minlength=graph.num_edges)
    return fairness_from_usage(graph, usage)


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
    that this distribution is (near) uniform over edges.
    """
    usage = walk_edge_usage(graph, num_agents=num_agents, rounds=rounds, seed=seed, lazy=lazy)
    return fairness_from_usage(graph, usage)


def walk_edge_usage(
    graph: Graph,
    *,
    num_agents: Optional[int] = None,
    rounds: int = 200,
    seed=0,
    lazy: bool = False,
) -> np.ndarray:
    """Per-edge traversal counts (``graph.edges()`` order) of the walks of
    :func:`edge_usage_from_walks`.

    The walk draws from one ``Generator``: stationary placement, then per
    round a neighbor sample for every agent and, when ``lazy``, one stay-put
    coin per agent.  The traversals are counted once, after the walk.
    """
    rng = make_rng(seed)
    count = int(num_agents if num_agents is not None else graph.num_vertices)
    if count < 1:
        raise ValueError("need at least one agent")
    positions = rng.choice(
        graph.num_vertices, size=count, p=graph.stationary_distribution()
    )
    steps = [positions]
    for _ in range(int(rounds)):
        moved = graph.sample_neighbors(positions, rng)
        if lazy:
            moved = np.where(rng.random(count) < 0.5, positions, moved)
        steps.append(moved)
        positions = moved
    # Row r of the walk is every agent's position after r rounds; a step that
    # moves traverses the edge between consecutive rows.
    walk = np.stack(steps)
    old, new = walk[:-1].ravel(), walk[1:].ravel()
    moves = old != new
    return np.bincount(graph.edge_ids(old[moves], new[moves]), minlength=graph.num_edges)
