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

    # Sample the linear indices of the edges via geometric skipping, O(n + m)
    # expected time, then map them to pairs in one call.
    total_pairs = n * (n - 1) // 2
    skipped_to: List[int] = []
    if 0.0 < p < 1.0:
        index = -1
        log_1mp = np.log1p(-p)
        while True:
            gap = int(np.floor(np.log(1.0 - rng.random()) / log_1mp)) + 1
            index += gap
            if index >= total_pairs:
                break
            skipped_to.append(index)
    indices = np.arange(total_pairs) if p >= 1.0 else np.asarray(skipped_to, dtype=np.int64)
    u, v = _triangular_pairs(indices, n)
    return Graph(n, np.column_stack((u, v)), name=f"erdos_renyi(n={n}, p={p:g})")


def _triangular_pairs(indices: np.ndarray, n: int):
    """Map linear indices in ``[0, n(n-1)/2)`` to pairs ``(u, v)``, ``u < v``.

    Row ``u`` holds the pairs ``(u, u+1 .. n-1)`` and starts at index
    ``u*n - u(u+1)/2``.  The closed-form root gives the row up to float
    rounding at row boundaries, which an integer correction pass repairs.
    """
    idx = indices.astype(np.int64)
    u = ((2 * n - 1 - np.sqrt((2.0 * n - 1.0) ** 2 - 8.0 * idx)) // 2).astype(np.int64)
    np.clip(u, 0, n - 2, out=u)
    offset = u * np.int64(n) - u * (u + 1) // 2
    # Row u covers [offset(u), offset(u+1)); nudge until idx lands inside.
    for _ in range(3):
        too_low = offset + (n - 1 - u) <= idx
        too_high = offset > idx
        if not (too_low.any() or too_high.any()):
            break
        u = u + too_low.astype(np.int64) - too_high.astype(np.int64)
        offset = u * np.int64(n) - u * (u + 1) // 2
    v = idx - offset + u + 1
    return u, v


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
