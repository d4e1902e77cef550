"""Static graph representation used by every simulator in this package.

The protocols simulated here (push, push-pull, visit-exchange, meet-exchange)
sample uniformly random neighbors of vertices millions of times per run.  A
compressed-sparse-row (CSR) adjacency layout backed by numpy arrays makes that
sampling a constant-time, vectorizable operation, which is what keeps the
experiment sweeps in ``repro.experiments`` tractable on a laptop.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph", "GraphError"]


class GraphError(ValueError):
    """Raised when a graph cannot be constructed or is structurally invalid."""


def _key_dtype(n: int) -> np.dtype:
    """Width of the vertex-pair keys ``u * n + v`` of an ``n``-vertex graph:
    ``uint32`` while every key fits (``n <= 2**16``), else ``int64``."""
    return np.dtype(np.uint32 if n <= 1 << 16 else np.int64)


def _vertex_dtype(n: int) -> np.dtype:
    """Narrowest unsigned width that holds the vertex ids ``0 .. n-1``."""
    return np.dtype(np.uint16 if n <= 1 << 16 else np.uint32 if n <= 1 << 32 else np.int64)


def _sorted_slot_keys(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The directed slot keys ``src * n + dst`` and ``dst * n + src`` of every
    edge, sorted in place; ids must already lie in ``[0, n)``."""
    m = src.shape[0]
    keys = np.empty(2 * m, dtype=_key_dtype(n))
    for half, a, b in ((keys[:m], src, dst), (keys[m:], dst, src)):
        half[...] = a
        half *= keys.dtype.type(n)
        np.add(half, b, out=half, dtype=keys.dtype, casting="unsafe")
    keys.sort()
    return keys


def _edge_keys(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The undirected key ``min * n + max`` of every pair ``(us[i], vs[i])``,
    in :func:`_key_dtype` width, without a full-width temporary.

    ``min * n + max == min * (n - 1) + u + v``, so each step is one ufunc
    into the key buffer; ids must already lie in ``[0, n)``.
    """
    keys = np.minimum(us, vs, out=np.empty(len(us), dtype=_key_dtype(n)), casting="unsafe")
    keys *= keys.dtype.type(n - 1)
    for ids in (us, vs):
        np.add(keys, ids, out=keys, dtype=keys.dtype, casting="unsafe")
    return keys


def _unique_inplace(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending; sorts ``values`` itself
    (``np.unique`` would sort a copy)."""
    values.sort()
    if values.size < 2:
        return values
    fresh = np.empty(values.size, dtype=bool)
    fresh[0] = True
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh]


class Graph:
    """An undirected, simple graph stored in CSR (adjacency array) form.

    Vertices are the integers ``0 .. n-1``.  Parallel edges and self loops are
    rejected at construction time, because none of the paper's protocols are
    defined on multigraphs.

    The CSR rule: every edge ``{u, v}`` gives the two directed slot keys
    ``u * n + v`` and ``v * n + u``, and the sorted array of all ``2m`` keys
    *is* the adjacency.  ``key // n`` is a slot's row, so the row bounds
    ``indptr`` are binary searches for ``u * n``; ``key % n`` is
    ``indices``, ascending within each row; a repeated key is a duplicate
    edge.  The keys are ``uint32`` while ``n <= 2**16`` and ``int64`` above.
    An edge array is read in place, so on top of the caller's edges a build
    holds at its peak the keys plus the int64 ``indices`` it keeps: ``24m``
    bytes (``16m`` above ``2**16`` vertices, where the keys become
    ``indices`` in place), and ``8n`` each for ``indptr`` and ``degrees``.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n`` and ``u != v``.
        Each undirected edge should appear once; duplicates are rejected.
    """

    __slots__ = (
        "_n",
        "_m",
        "_indptr",
        "_indices",
        "_degrees",
        "_name",
        "_stationary",
        "_slot_sources",
        "_slot_edge_ids",
        "_narrow_indices",
        "_fingerprint",
        "_connected",
        "_bipartite",
    )

    #: Process-wide count of ``Graph`` constructions (class attribute; with
    #: ``__slots__`` it cannot be shadowed per-instance).  Tests snapshot it
    #: around warm store sweeps to assert the manifest-trusted path performs
    #: *zero* graph constructions — a superset of builder calls, so the
    #: assertion also catches stray ad-hoc construction.
    construction_count = 0

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        *,
        name: str = "graph",
    ) -> None:
        if num_vertices <= 0:
            raise GraphError("a graph needs at least one vertex")
        n = int(num_vertices)

        # Builders pass a ``(m, 2)`` integer ndarray, read in place whatever
        # its width or strides; the per-edge Python tuple path is kept for
        # hand-written edge lists.
        if isinstance(edges, np.ndarray):
            if edges.size == 0:
                pairs = np.empty((0, 2), dtype=np.int64)
            else:
                if edges.ndim != 2 or edges.shape[1] != 2:
                    raise GraphError("edge array must have shape (m, 2)")
                if not np.issubdtype(edges.dtype, np.integer):
                    raise GraphError("edge array must be integer-typed")
                pairs = edges
        else:
            edge_list = [(int(u), int(v)) for u, v in edges]
            pairs = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
            del edge_list
        m = int(pairs.shape[0])
        u_arr, v_arr = pairs[:, 0], pairs[:, 1]

        # Reductions first, so a valid edge list allocates no mask; the
        # masks only locate the first offender for the message.
        if m and (pairs.min() < 0 or pairs.max() >= n):
            out_of_range = (u_arr < 0) | (u_arr >= n) | (v_arr < 0) | (v_arr >= n)
            i = int(np.argmax(out_of_range))
            raise GraphError(f"edge ({u_arr[i]}, {v_arr[i]}) out of range for n={n}")
        loops = u_arr == v_arr
        if np.any(loops):
            i = int(np.argmax(loops))
            raise GraphError(f"self loop ({u_arr[i]}, {v_arr[i]}) is not allowed")
        del loops

        keys = _sorted_slot_keys(n, u_arr, v_arr)
        del pairs, u_arr, v_arr
        if m and np.any(keys[1:] == keys[:-1]):
            raise GraphError("duplicate edges are not allowed")

        # Row ``u`` holds the keys in ``[u * n, (u + 1) * n)``; the last bound
        # ``n * n`` may not fit the key width, and it is ``2m`` anyway.
        indptr = np.empty(n + 1, dtype=np.int64)
        indptr[:n] = np.searchsorted(keys, np.arange(n, dtype=keys.dtype) * keys.dtype.type(n))
        indptr[n] = 2 * m
        degrees = np.diff(indptr)
        np.remainder(keys, keys.dtype.type(n), out=keys)
        indices = keys.astype(np.int64, copy=False)
        del keys

        Graph.construction_count += 1
        self._n = n
        self._m = m
        self._indptr = indptr
        self._indices = indices
        self._degrees = degrees
        self._name = str(name)
        self._stationary: Optional[np.ndarray] = None
        self._slot_sources: Optional[np.ndarray] = None
        self._slot_edge_ids: Optional[np.ndarray] = None
        self._narrow_indices: Optional[np.ndarray] = None
        # Memo of ``repro.store.keys.graph_fingerprint``: the CSR is read-only.
        self._fingerprint: Optional[str] = None
        self._connected: Optional[bool] = None
        self._bipartite: Optional[bool] = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human readable name of the graph family instance."""
        return self._name

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._m

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of length ``n + 1`` (read-only view)."""
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array of length ``2m`` (read-only view)."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    @property
    def degrees(self) -> np.ndarray:
        """Array of vertex degrees (read-only view)."""
        view = self._degrees.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(name={self._name!r}, n={self._n}, m={self._m})"

    # ------------------------------------------------------------------
    # vertex-level queries
    # ------------------------------------------------------------------
    def degree(self, u: int) -> int:
        """Return the degree of vertex ``u``."""
        return int(self._degrees[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Return the neighbors of ``u`` as a read-only numpy array."""
        view = self._indices[self._indptr[u] : self._indptr[u + 1]].view()
        view.flags.writeable = False
        return view

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if ``{u, v}`` is an edge of the graph.

        Each CSR row is sorted ascending, so membership is a binary search
        rather than a linear scan.
        """
        if u == v:
            return False
        u, v = int(u), int(v)
        start, stop = self._indptr[u], self._indptr[u + 1]
        pos = start + np.searchsorted(self._indices[start:stop], v)
        return pos < stop and int(self._indices[pos]) == v

    def vertices(self) -> range:
        """Return an iterable over all vertex ids."""
        return range(self._n)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once as a pair ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    # ------------------------------------------------------------------
    # random sampling (hot path used by the protocols)
    # ------------------------------------------------------------------
    def sample_neighbor(self, u: int, rng: np.random.Generator) -> int:
        """Sample a uniformly random neighbor of ``u``."""
        start = self._indptr[u]
        deg = self._degrees[u]
        if deg == 0:
            raise GraphError(f"vertex {u} is isolated and has no neighbors")
        return int(self._indices[start + rng.integers(deg)])

    def sample_neighbors(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample one uniformly random neighbor for each vertex in ``vertices``.

        This is the vectorized version of :meth:`sample_neighbor` used by the
        fairness walks (:func:`repro.analysis.fairness.edge_usage_from_walks`),
        where all agents step simultaneously each round.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        degs = self._degrees[vertices]
        if np.any(degs == 0):
            raise GraphError("cannot sample a neighbor of an isolated vertex")
        offsets = rng.integers(0, degs)
        return self._indices[self._indptr[vertices] + offsets]

    def stationary_distribution(self) -> np.ndarray:
        """Return the stationary distribution of a simple random walk.

        For an undirected graph this is ``deg(v) / (2 |E|)`` (Section 3 of the
        paper uses exactly this distribution to place agents initially).  The
        array is computed once and cached: agent placement re-requests it for
        every trial of a sweep.
        """
        if self._stationary is None:
            self._stationary = self._degrees / float(2 * self._m)
            self._stationary.flags.writeable = False
        return self._stationary

    def slot_sources(self) -> np.ndarray:
        """Source vertex of every directed CSR slot (length ``2m``), cached.

        ``slot_sources()[i]`` is the vertex whose adjacency row contains slot
        ``i``.  Used by stationary agent placement (a uniform slot's source is
        stationary-distributed) and by the dynamic-topology layer; computed
        once per graph because both re-request it for every run of a sweep.
        """
        if self._slot_sources is None:
            self._slot_sources = np.repeat(
                np.arange(self._n, dtype=np.int64), self._degrees
            )
            self._slot_sources.flags.writeable = False
        return self._slot_sources

    def indices_as(self, dtype) -> np.ndarray:
        """The CSR column indices in the integer ``dtype`` (read-only), cached.

        ``int64`` is :attr:`indices` itself; a narrower width is converted
        once per graph and kept, like :meth:`slot_sources`.  The kernels'
        samplers gather from such a copy on large graphs (the width rule is
        :func:`repro.core.kernels.base.vertex_id_dtype`).
        """
        dtype = np.dtype(dtype)
        if dtype == self._indices.dtype:
            return self.indices
        if self._narrow_indices is None or self._narrow_indices.dtype != dtype:
            if self._n - 1 > np.iinfo(dtype).max:
                raise GraphError(f"{dtype} cannot hold the vertex ids of n={self._n}")
            self._narrow_indices = self._indices.astype(dtype)
            self._narrow_indices.flags.writeable = False
        return self._narrow_indices

    def edge_ids(self, us, vs) -> np.ndarray:
        """Index in :meth:`edges` order of each pair ``{us[i], vs[i]}``, or
        ``-1`` where the pair is not an edge.

        The forward CSR slots (``u < v``) in CSR order are the edges in
        :meth:`edges` order, so their keys ``u * n + v`` are sorted and one
        binary search per pair finds its index.  Self pairs and vertex ids
        outside ``[0, n)`` are never edges.
        """
        sources = self.slot_sources()
        forward = sources < self._indices
        keys = sources[forward] * self._n + self._indices[forward]
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        query = np.where((lo >= 0) & (hi < self._n), lo * self._n + hi, -1)
        if not keys.size:
            return np.full(query.shape, -1, dtype=np.int64)
        ids = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return np.where(keys[ids] == query, ids, -1)

    def slot_edge_ids(self) -> np.ndarray:
        """Canonical undirected-edge index of every directed CSR slot, cached.

        Edge indices follow :meth:`edges` iteration order (sorted ``(u, v)``
        pairs with ``u < v``), so a per-edge mask indexed this way expands to
        a per-slot mask with one gather — how the dynamic-topology layer maps
        undirected edge states onto the samplers' flat offsets.
        """
        if self._slot_edge_ids is None:
            self._slot_edge_ids = self.edge_ids(self.slot_sources(), self._indices)
            self._slot_edge_ids.flags.writeable = False
        return self._slot_edge_ids

    # ------------------------------------------------------------------
    # structural predicates
    # ------------------------------------------------------------------
    def is_regular(self) -> bool:
        """Return ``True`` if all vertices have the same degree."""
        return bool(np.all(self._degrees == self._degrees[0]))

    def regularity_degree(self) -> int:
        """Return ``d`` if the graph is d-regular, raise otherwise."""
        if not self.is_regular():
            raise GraphError("graph is not regular")
        return int(self._degrees[0])

    def _frontier_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of ``frontier``, in frontier order.

        This is the kernel of the frontier-array BFS: one gather per level
        instead of a Python loop over vertices and neighbors.
        """
        return self._indices[self._frontier_slots(frontier)]

    def _frontier_slots(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated CSR slot ranges of ``frontier``, in frontier order."""
        counts = self._degrees[frontier]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._indptr[frontier]
        # positions[i] = starts[group(i)] + offset-within-group(i)
        boundaries = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        return boundaries + np.arange(total)

    def is_connected(self) -> bool:
        """Return ``True`` if the graph is connected (BFS from vertex 0).

        Computed once and cached: every run of a sweep checks it.
        """
        if self._connected is None:
            self._connected = self._bfs_reaches_all()
        return self._connected

    def _bfs_reaches_all(self) -> bool:
        seen = np.zeros(self._n, dtype=bool)
        seen[0] = True
        reached = 1
        frontier = np.array([0], dtype=np.int64)
        while frontier.size:
            neighbors = self._frontier_neighbors(frontier)
            fresh = neighbors[~seen[neighbors]]
            if not fresh.size:
                break
            frontier = _unique_inplace(fresh)
            seen[frontier] = True
            reached += int(frontier.size)
        return reached == self._n

    def is_bipartite(self) -> bool:
        """Return ``True`` if the graph is bipartite.

        Colors every component by BFS-level parity, then verifies in one
        vectorized pass that no edge connects two vertices of equal color.
        Computed once and cached, like :meth:`is_connected`.
        """
        if self._bipartite is None:
            self._bipartite = self._two_colorable()
        return self._bipartite

    def _two_colorable(self) -> bool:
        color = np.full(self._n, -1, dtype=np.int8)
        for start in range(self._n):
            if color[start] != -1:
                continue
            color[start] = 0
            frontier = np.array([start], dtype=np.int64)
            parity = 0
            while frontier.size:
                parity ^= 1
                neighbors = self._frontier_neighbors(frontier)
                fresh = neighbors[color[neighbors] == -1]
                if not fresh.size:
                    break
                frontier = _unique_inplace(fresh)
                color[frontier] = parity
        src = np.repeat(np.arange(self._n, dtype=np.int64), self._degrees)
        return not bool(np.any(color[src] == color[self._indices]))

    def distances_from(self, source: int) -> np.ndarray:
        """Return BFS distances from ``source`` (-1 for unreachable vertices)."""
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([int(source)], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            neighbors = self._frontier_neighbors(frontier)
            fresh = neighbors[dist[neighbors] == -1]
            if not fresh.size:
                break
            frontier = _unique_inplace(fresh)
            dist[frontier] = level
        return dist

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Sequence[Tuple[int, int]], *, name: str = "graph"
    ) -> "Graph":
        """Build a graph from an explicit edge list."""
        return cls(num_vertices, edges, name=name)
