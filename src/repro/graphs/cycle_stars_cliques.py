"""The cycle-of-stars-of-cliques graph of Figure 1(e).

Construction (Lemma 9): take a cycle of ``k`` vertices ``c_i``.  Attach to each
``c_i`` a set of ``k`` star-leaf vertices ``l_{i,j}``.  For each ``l_{i,j}``
attach ``k`` clique vertices ``q_{i,j,*}``, pairwise connected and each also
connected to ``l_{i,j}``, so ``{l_{i,j}} ∪ {q_{i,j,*}}`` induces a
``(k+1)``-clique.  With ``k = n^{1/3}`` the graph has ``Theta(n)`` vertices and
is almost regular (degrees ``k`` or ``k+1`` except the ring vertices with
``k + 2``).

Lemma 9 shows ``E[T_visitx] = O(n^{2/3})`` while
``E[T_meetx] = Omega(n^{2/3} log n)`` — the only known example (in the paper)
where visit-exchange beats meet-exchange, and only by a logarithmic factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .builders import register_builder
from .graph import Graph, GraphError, _vertex_dtype

__all__ = [
    "cycle_of_stars_of_cliques",
    "CycleStarsLayout",
    "cycle_stars_layout",
    "BUILDER_VERSION",
]

#: Bump when :func:`cycle_of_stars_of_cliques` changes the instance (or
#: layout numbering) it emits for the same ``k`` (invalidates
#: manifest-trusted warm starts, never results).
BUILDER_VERSION = 1
register_builder(
    "cycle_of_stars_of_cliques",
    BUILDER_VERSION,
    lambda p: cycle_of_stars_of_cliques(p["k"])[0],
)


@dataclass(frozen=True)
class CycleStarsLayout:
    """Vertex-id layout of a cycle-of-stars-of-cliques graph.

    Attributes
    ----------
    k:
        The construction parameter (number of ring vertices, stars per ring
        vertex, and clique vertices per star leaf).
    ring:
        Vertex ids of the ring vertices ``c_i``.
    star_leaves:
        ``star_leaves[i][j]`` is the vertex id of ``l_{i,j}``.
    clique_members:
        ``clique_members[i][j]`` is the list of ids of ``q_{i,j,*}``.
    """

    k: int
    ring: List[int]
    star_leaves: List[List[int]]
    clique_members: List[List[List[int]]]

    @property
    def num_vertices(self) -> int:
        """Total number of vertices: ``k + k^2 + k^3``."""
        return self.k + self.k**2 + self.k**3


def cycle_stars_layout(k: int) -> CycleStarsLayout:
    """Compute the vertex-id layout for construction parameter ``k``."""
    if k < 3:
        raise GraphError("cycle-of-stars-of-cliques needs k >= 3")
    k = int(k)
    ring = list(range(k))
    star_leaves: List[List[int]] = []
    clique_members: List[List[List[int]]] = []
    next_id = k
    for i in range(k):
        star_leaves.append([])
        clique_members.append([])
        for j in range(k):
            star_leaves[i].append(next_id)
            next_id += 1
    for i in range(k):
        for j in range(k):
            members = list(range(next_id, next_id + k))
            next_id += k
            clique_members[i].append(members)
    return CycleStarsLayout(k=k, ring=ring, star_leaves=star_leaves, clique_members=clique_members)


def cycle_of_stars_of_cliques(k: int) -> Tuple[Graph, CycleStarsLayout]:
    """Build the Figure 1(e) graph with construction parameter ``k``.

    Returns the graph together with its :class:`CycleStarsLayout`, which maps
    the structural roles (ring vertex, star leaf, clique member) back to vertex
    ids; the experiments use the layout to pick sources and to track when ring
    vertices become informed.
    """
    layout = cycle_stars_layout(k)
    k = layout.k
    # Id arithmetic mirrors ``cycle_stars_layout``: ring ``0..k-1``, star leaf
    # ``(i, j)`` at ``k + i*k + j``, clique block ``(i, j)`` at
    # ``k + k^2 + (i*k + j)*k``.  The edge set is O(k^4) (dominated by the
    # intra-clique pairs), so each kind fills its block of one narrow edge
    # array from index arrays.
    ring = np.arange(k, dtype=np.int64)
    leaves = np.arange(k, k + k * k, dtype=np.int64)
    members = np.arange(k + k * k, k + k * k + k**3, dtype=np.int64)
    ti, tj = np.triu_indices(k, k=1)
    num_edges = k + k * k + k**3 + k * k * ti.size
    edges = np.empty((num_edges, 2), dtype=_vertex_dtype(layout.num_vertices))
    ring_edges, star_edges, leaf_clique_edges, clique_edges = np.split(
        edges, np.cumsum([k, k * k, k**3])
    )

    # Ring edges c_i -- c_{i+1}.
    ring_edges[:, 0] = ring
    ring_edges[:, 1] = (ring + 1) % k
    # Star edges c_i -- l_{i,j}.
    star_edges[:, 0] = (leaves - k) // k
    star_edges[:, 1] = leaves
    # Leaf-to-clique edges l_{i,j} -- q_{i,j,*}.
    leaf_clique_edges[:, 0] = np.repeat(leaves, k)
    leaf_clique_edges[:, 1] = members
    # Intra-clique pairs within each Q_{i,j}: the same triangular index
    # pattern shifted by each block's base id.
    blocks = clique_edges.reshape(k * k, ti.size, 2)
    blocks[:, :, 0] = ti
    blocks[:, :, 1] = tj
    bases = k + k * k + np.arange(k * k, dtype=np.int64)[:, None, None] * k
    np.add(blocks, bases, out=blocks, casting="unsafe")

    graph = Graph(
        layout.num_vertices, edges, name=f"cycle_of_stars_of_cliques(k={k})"
    )
    return graph, layout

