"""The star graph ``S_n`` of Figure 1(a).

A star with ``n`` leaves has one internal vertex (the center) adjacent to every
leaf.  Lemma 2 of the paper shows that on this graph

* ``E[T_push] = Omega(n log n)`` (coupon collector at the center),
* ``T_ppull <= 2``,
* ``T_visitx = O(log n)`` w.h.p., and
* ``T_meetx = O(log n)`` w.h.p. (with lazy walks, as the star is bipartite).
"""

from __future__ import annotations

import numpy as np

from .builders import register_builder
from .graph import Graph, GraphError

__all__ = ["star", "CENTER", "leaf_vertices", "BUILDER_VERSION"]

#: Vertex id of the star center in graphs produced by :func:`star`.
CENTER = 0

#: Bump when :func:`star` changes the instance it emits for the same
#: parameters (invalidates manifest-trusted warm starts, never results).
BUILDER_VERSION = 1
register_builder("star", BUILDER_VERSION, lambda p: star(p["num_leaves"]))


def star(num_leaves: int) -> Graph:
    """Build the star graph with ``num_leaves`` leaves.

    Vertex ``0`` is the center; vertices ``1 .. num_leaves`` are leaves.  The
    graph has ``num_leaves + 1`` vertices in total.
    """
    if num_leaves < 1:
        raise GraphError("a star needs at least one leaf")
    edges = np.empty((num_leaves, 2), dtype=np.int64)
    edges[:, 0] = CENTER
    edges[:, 1] = np.arange(1, num_leaves + 1)
    return Graph(num_leaves + 1, edges, name=f"star(n={num_leaves})")


def leaf_vertices(graph: Graph) -> range:
    """Return the leaf vertex ids of a graph produced by :func:`star`."""
    return range(1, graph.num_vertices)
