"""The double star ``S^2_n`` of Figure 1(b).

Two stars of ``n/2`` vertices each, with their centers joined by an edge.
Lemma 3 of the paper shows that on this graph

* ``E[T_ppull] = Omega(n)`` — push-pull must sample the single bridge edge,
  which happens with probability ``O(1/n)`` per round, whereas
* ``T_visitx = O(log n)`` and ``T_meetx = O(log n)`` w.h.p. — some agent
  crosses the bridge with constant probability per round because a constant
  fraction of all agents sits on the two centers at any time.

This is the paper's flagship example of the *local fairness* advantage of the
agent-based protocols.
"""

from __future__ import annotations

import numpy as np

from .builders import register_builder
from .graph import Graph, GraphError

__all__ = ["double_star", "CENTER_A", "CENTER_B", "leaves_of", "BUILDER_VERSION"]

#: Vertex id of the first star's center.
CENTER_A = 0
#: Vertex id of the second star's center.
CENTER_B = 1

#: Bump when :func:`double_star` changes the instance it emits for the same
#: parameters (invalidates manifest-trusted warm starts, never results).
BUILDER_VERSION = 1
register_builder("double_star", BUILDER_VERSION, lambda p: double_star(p["num_vertices"]))


def double_star(num_vertices: int) -> Graph:
    """Build a double star on (approximately) ``num_vertices`` vertices.

    Vertices ``0`` and ``1`` are the two centers, connected by an edge.  The
    remaining vertices are split as evenly as possible into leaves of the two
    centers.  ``num_vertices`` must be at least 4 so each center has at least
    one leaf.
    """
    if num_vertices < 4:
        raise GraphError("a double star needs at least 4 vertices")
    n = int(num_vertices)
    num_leaves = n - 2
    half = num_leaves // 2

    edges = np.empty((num_leaves + 1, 2), dtype=np.int64)
    edges[0] = (CENTER_A, CENTER_B)
    edges[1:, 1] = np.arange(2, n)
    edges[1 : 1 + half, 0] = CENTER_A
    edges[1 + half :, 0] = CENTER_B
    return Graph(n, edges, name=f"double_star(n={n})")


def leaves_of(graph: Graph, center: int) -> list:
    """Return the leaves attached to ``center`` (one of the two center ids)."""
    if center not in (CENTER_A, CENTER_B):
        raise GraphError("center must be CENTER_A (0) or CENTER_B (1)")
    return [int(v) for v in graph.neighbors(center) if int(v) not in (CENTER_A, CENTER_B)]
