"""The heavy binary tree ``B_n`` of Figure 1(c).

``B_n`` is a balanced binary tree on ``n`` vertices in which every pair of
leaves is additionally connected by an edge, so the leaves induce a clique of
``l = ceil(n/2)`` vertices.  Lemma 4 shows that on this graph

* ``T_push = O(log n)`` w.h.p.,
* ``E[T_visitx] = Omega(n)`` — essentially all random-walk volume is on the
  leaf clique, so no agent reaches the root for a linear number of rounds, and
* ``T_meetx = O(log n)`` w.h.p. when the source is a leaf — all agents meet
  quickly inside the leaf clique.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .builders import register_builder
from .graph import Graph, GraphError, _vertex_dtype

__all__ = [
    "heavy_binary_tree",
    "ROOT",
    "tree_leaves",
    "internal_vertices",
    "complete_binary_tree_edges",
    "BUILDER_VERSION",
]

#: Vertex id of the root in graphs produced by :func:`heavy_binary_tree`.
ROOT = 0

#: Bump when :func:`heavy_binary_tree` changes the instance it emits for the
#: same parameters (invalidates manifest-trusted warm starts, never results).
BUILDER_VERSION = 1
register_builder(
    "heavy_binary_tree", BUILDER_VERSION, lambda p: heavy_binary_tree(p["num_vertices"])
)


def complete_binary_tree_edges(num_vertices: int) -> np.ndarray:
    """Return the parent-child edges of a complete binary tree on ``n`` vertices.

    Vertices are numbered in heap order: the children of ``i`` are ``2i + 1``
    and ``2i + 2``.  Returned as an ``(n - 1, 2)`` int64 array.
    """
    children = np.arange(1, num_vertices, dtype=np.int64)
    return np.column_stack(((children - 1) // 2, children))


def _heap_leaves(num_vertices: int) -> np.ndarray:
    """Return the leaf ids of a complete binary tree in heap order."""
    n = int(num_vertices)
    # Heap-order leaves are exactly the vertices without a left child
    # (``2v + 1 >= n``), i.e. the contiguous range ``n // 2 .. n - 1``.
    return np.arange(n // 2, n, dtype=np.int64)


def heavy_binary_tree(num_vertices: int) -> Graph:
    """Build the heavy binary tree ``B_n`` on ``num_vertices`` vertices.

    The underlying structure is a complete binary tree in heap order (vertex 0
    is the root).  All leaves of that tree are then pairwise connected, forming
    a clique.  ``num_vertices`` must be at least 3.
    """
    if num_vertices < 3:
        raise GraphError("a heavy binary tree needs at least 3 vertices")
    n = int(num_vertices)
    return Graph(n, _heavy_tree_edges(n, _vertex_dtype(n)), name=f"heavy_binary_tree(n={n})")


def _heavy_tree_edges(num_vertices: int, dtype) -> np.ndarray:
    """The edges of ``B_n`` as an ``(m, 2)`` array of ``dtype``: the tree's
    parent-child edges, then every pair of leaves.

    The heap-order leaves are the range ``n // 2 .. n - 1``, so the clique's
    pairs are the upper-triangle indices shifted by ``n // 2``, written
    straight into the narrow array.
    """
    n = int(num_vertices)
    li, lj = np.triu_indices(n - n // 2, k=1)
    edges = np.empty((n - 1 + li.size, 2), dtype=dtype)
    edges[: n - 1] = complete_binary_tree_edges(n)
    clique = edges[n - 1 :]
    clique[:, 0] = li
    clique[:, 1] = lj
    clique += n // 2
    return edges


def tree_leaves(graph: Graph) -> List[int]:
    """Return the leaf vertices (clique members) of a heavy binary tree.

    Works on any graph produced by :func:`heavy_binary_tree` by recomputing the
    heap-order leaf set from the vertex count.
    """
    return [int(v) for v in _heap_leaves(graph.num_vertices)]


def internal_vertices(graph: Graph) -> List[int]:
    """Return the internal (non-leaf) vertices of a heavy binary tree."""
    return list(range(graph.num_vertices // 2))

