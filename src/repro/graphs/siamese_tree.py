"""The siamese heavy binary tree ``D_n`` of Figure 1(d).

``D_n`` is obtained by taking two copies of the heavy binary tree ``B_n`` and
merging their roots into a single vertex.  Lemma 8 shows that on this graph

* ``T_push = O(log n)`` w.h.p., while
* ``E[T_visitx] = Omega(n)`` and ``E[T_meetx] = Omega(n)`` — the agents split
  between the two leaf cliques, and information can only pass between the two
  halves through the (rarely visited) root.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .builders import register_builder
from .graph import Graph, GraphError, _vertex_dtype
from .heavy_binary_tree import _heap_leaves, _heavy_tree_edges

__all__ = [
    "siamese_heavy_binary_tree",
    "ROOT",
    "left_leaves",
    "right_leaves",
    "BUILDER_VERSION",
]

#: Vertex id of the shared root.
ROOT = 0

#: Bump when :func:`siamese_heavy_binary_tree` changes the instance it emits
#: for the same parameters (invalidates manifest-trusted warm starts).
BUILDER_VERSION = 1
register_builder(
    "siamese_heavy_binary_tree",
    BUILDER_VERSION,
    lambda p: siamese_heavy_binary_tree(p["tree_vertices"]),
)


def siamese_heavy_binary_tree(tree_vertices: int) -> Graph:
    """Build the siamese heavy binary tree from two ``B_n`` copies.

    ``tree_vertices`` is the number of vertices of each copy (the resulting
    graph has ``2 * tree_vertices - 1`` vertices since the roots are merged).

    Vertex layout: vertex 0 is the shared root; vertices ``1..tree_vertices-1``
    are the rest of the left copy (heap order, shifted); vertices
    ``tree_vertices..2*tree_vertices-2`` are the rest of the right copy.
    """
    if tree_vertices < 3:
        raise GraphError("each tree copy needs at least 3 vertices")
    n_tree = int(tree_vertices)
    n_total = 2 * n_tree - 1
    # One copy in heap order (it is the left copy as is), then the right
    # copy: every vertex but the shared root shifts past the left copy.
    left = _heavy_tree_edges(n_tree, _vertex_dtype(n_total))
    edges = np.concatenate([left, left])
    right = edges[left.shape[0] :]
    del left
    np.add(right, n_tree - 1, out=right, where=right != ROOT)
    return Graph(n_total, edges, name=f"siamese_heavy_binary_tree(n={n_total})")


def left_leaves(graph: Graph) -> List[int]:
    """Return the leaf-clique vertices of the left copy."""
    n_tree = (graph.num_vertices + 1) // 2
    return _heap_leaves(n_tree).tolist()


def right_leaves(graph: Graph) -> List[int]:
    """Return the leaf-clique vertices of the right copy."""
    n_tree = (graph.num_vertices + 1) // 2
    return (_heap_leaves(n_tree) + (n_tree - 1)).tolist()
