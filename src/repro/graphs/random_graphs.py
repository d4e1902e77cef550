"""Non-regular random graph families.

The introduction of the paper motivates push-pull's popularity with graph
models of social networks.  These generators provide such graphs (power-law
degree sequences via preferential attachment, plus Erdős–Rényi as a nearly
regular reference) for the example applications and the fairness experiments.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .builders import register_builder
from .graph import Graph, GraphError

__all__ = [
    "erdos_renyi",
    "preferential_attachment",
    "connected_erdos_renyi",
    "BUILDER_VERSIONS",
]

#: Per-family builder versions; bump a family when its construction changes
#: the instance it emits for the same parameters (invalidates
#: manifest-trusted warm starts, never results).
BUILDER_VERSIONS = {
    "erdos_renyi": 1,
    "connected_erdos_renyi": 1,
    "preferential_attachment": 1,
}
#: Each family's build from its builder params (``seed`` seeds the draw).
_BUILDS = {
    "erdos_renyi": lambda p: erdos_renyi(
        p["num_vertices"], p["edge_probability"], np.random.default_rng(p["seed"])
    ),
    "connected_erdos_renyi": lambda p: connected_erdos_renyi(
        p["num_vertices"], p["edge_probability"], np.random.default_rng(p["seed"])
    ),
    "preferential_attachment": lambda p: preferential_attachment(
        p["num_vertices"], p["edges_per_vertex"], np.random.default_rng(p["seed"])
    ),
}
for _family, _version in BUILDER_VERSIONS.items():
    register_builder(_family, _version, _BUILDS[_family])


def erdos_renyi(num_vertices: int, edge_probability: float, rng: np.random.Generator) -> Graph:
    """Sample a ``G(n, p)`` Erdős–Rényi graph.

    The sample is returned as-is (it may be disconnected); use
    :func:`connected_erdos_renyi` when a connected instance is required.
    """
    n = int(num_vertices)
    p = float(edge_probability)
    if n < 2:
        raise GraphError("G(n, p) needs at least 2 vertices")
    if not 0.0 <= p <= 1.0:
        raise GraphError("edge probability must lie in [0, 1]")

    edges: List[Tuple[int, int]] = []
    # Sample each potential edge via geometric skipping, O(n + m) expected time.
    if p > 0:
        if p >= 1.0:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        else:
            total_pairs = n * (n - 1) // 2
            index = -1
            log_1mp = np.log1p(-p)
            while True:
                gap = int(np.floor(np.log(1.0 - rng.random()) / log_1mp)) + 1
                index += gap
                if index >= total_pairs:
                    break
                u, v = _pair_from_index(index, n)
                edges.append((u, v))
    return Graph(n, edges, name=f"erdos_renyi(n={n}, p={p:g})")


def _pair_from_index(index: int, n: int) -> Tuple[int, int]:
    """Map a linear index in [0, n(n-1)/2) to the corresponding (u, v), u < v."""
    # Row u starts at offset u*n - u*(u+1)/2 - u ... simpler to solve by search.
    u = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * index)) // 2)
    # Adjust for rounding errors at row boundaries.
    while _row_offset(u + 1, n) <= index:
        u += 1
    while _row_offset(u, n) > index:
        u -= 1
    v = index - _row_offset(u, n) + u + 1
    return u, int(v)


def _row_offset(u: int, n: int) -> int:
    """Number of pairs (a, b) with a < u <= b or a < b < u... i.e. pairs before row u."""
    return u * n - u * (u + 1) // 2


def connected_erdos_renyi(
    num_vertices: int,
    edge_probability: float,
    rng: np.random.Generator,
    *,
    max_attempts: int = 50,
) -> Graph:
    """Sample ``G(n, p)`` conditioned on connectivity (rejection sampling)."""
    for _ in range(max_attempts):
        graph = erdos_renyi(num_vertices, edge_probability, rng)
        if graph.is_connected():
            return graph
    raise GraphError(
        "failed to sample a connected G(n, p); increase p or the attempt budget"
    )


def preferential_attachment(
    num_vertices: int, edges_per_vertex: int, rng: np.random.Generator
) -> Graph:
    """Sample a Barabási–Albert preferential-attachment graph.

    Every new vertex attaches to ``edges_per_vertex`` distinct existing
    vertices chosen with probability proportional to their current degree.
    The result is connected and has a heavy-tailed degree distribution,
    mimicking the social-network topologies on which push-pull was shown to be
    fast in earlier work cited by the paper.
    """
    n = int(num_vertices)
    m = int(edges_per_vertex)
    if m < 1:
        raise GraphError("edges_per_vertex must be at least 1")
    if n <= m:
        raise GraphError("need more vertices than edges_per_vertex")

    # Start from a star on m + 1 vertices so every early vertex has degree >= 1.
    edges: List[Tuple[int, int]] = [(0, v) for v in range(1, m + 1)]
    # repeated_targets holds each endpoint once per incident edge, so sampling
    # uniformly from it is sampling proportionally to degree.
    repeated_targets: List[int] = []
    for u, v in edges:
        repeated_targets.extend((u, v))

    for new_vertex in range(m + 1, n):
        chosen: set = set()
        while len(chosen) < m:
            target = repeated_targets[int(rng.integers(len(repeated_targets)))]
            chosen.add(int(target))
        for target in chosen:
            edges.append((target, new_vertex))
            repeated_targets.extend((target, new_vertex))
    return Graph(n, edges, name=f"preferential_attachment(n={n}, m={m})")
