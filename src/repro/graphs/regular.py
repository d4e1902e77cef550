"""Regular graph families used for Theorems 1, 10, 19, 23, 24 and 25.

The paper's main technical result (Theorem 1) concerns d-regular graphs with
``d = Omega(log n)``.  The experiments exercise it on several regular families
with qualitatively different broadcast times:

* random d-regular graphs (logarithmic broadcast time),
* the hypercube (logarithmic degree and broadcast time),
* cliques joined in a cycle or path (polynomial broadcast time — the paper's
  "path of d-cliques where the broadcast time is Omega(n)" remark),
* complete graphs, cycles and torus grids as further reference points.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .builders import register_builder
from .graph import Graph, GraphError, _edge_keys, _vertex_dtype

__all__ = [
    "complete_graph",
    "cycle_graph",
    "hypercube",
    "torus_grid",
    "random_regular_graph",
    "clique_path",
    "clique_cycle",
    "circulant_graph",
    "BUILDER_VERSIONS",
]

#: Per-family builder versions; bump a family when its construction changes
#: the instance it emits for the same parameters (invalidates
#: manifest-trusted warm starts, never results).
BUILDER_VERSIONS = {
    "complete_graph": 1,
    "cycle_graph": 1,
    "hypercube": 1,
    "torus_grid": 1,
    "random_regular_graph": 1,
    "clique_path": 1,
    "clique_cycle": 1,
    "circulant_graph": 1,
}
#: Each family's build from its builder params (random families read
#: ``seed``).
_BUILDS = {
    "complete_graph": lambda p: complete_graph(p["num_vertices"]),
    "cycle_graph": lambda p: cycle_graph(p["num_vertices"]),
    "hypercube": lambda p: hypercube(p["dimension"]),
    "torus_grid": lambda p: torus_grid(p["rows"], p["cols"]),
    "random_regular_graph": lambda p: random_regular_graph(
        p["num_vertices"], p["degree"], np.random.default_rng(p["seed"])
    ),
    "clique_path": lambda p: clique_path(p["num_cliques"], p["clique_size"]),
    "clique_cycle": lambda p: clique_cycle(p["num_cliques"], p["clique_size"]),
    "circulant_graph": lambda p: circulant_graph(p["num_vertices"], p["offsets"]),
}
for _family, _version in BUILDER_VERSIONS.items():
    register_builder(_family, _version, _BUILDS[_family])


def complete_graph(num_vertices: int) -> Graph:
    """Build the complete graph ``K_n`` (the original push-pull setting)."""
    if num_vertices < 2:
        raise GraphError("a complete graph needs at least 2 vertices")
    n = int(num_vertices)
    iu, ju = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack((iu, ju)), name=f"complete(n={n})")


def cycle_graph(num_vertices: int) -> Graph:
    """Build the cycle ``C_n`` (2-regular; degree below the log n regime)."""
    if num_vertices < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    n = int(num_vertices)
    u = np.arange(n, dtype=np.int64)
    return Graph(n, np.column_stack((u, (u + 1) % n)), name=f"cycle(n={n})")


def circulant_graph(num_vertices: int, offsets: List[int]) -> Graph:
    """Build a circulant graph: vertex ``u`` is adjacent to ``u ± o`` for each offset.

    Circulants give an easy deterministic way to produce d-regular graphs with
    tunable degree; they are used in the ablation benchmarks.
    """
    n = int(num_vertices)
    if n < 3:
        raise GraphError("a circulant graph needs at least 3 vertices")
    edges = set()
    for offset in offsets:
        offset = int(offset) % n
        if offset == 0:
            raise GraphError("offset 0 would create self loops")
        for u in range(n):
            v = (u + offset) % n
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges), name=f"circulant(n={n}, offsets={sorted(set(offsets))})")


def hypercube(dimension: int) -> Graph:
    """Build the ``dimension``-dimensional hypercube (``2^dimension`` vertices).

    The hypercube is d-regular with ``d = log2(n)``, right at the boundary of
    the paper's ``d = Omega(log n)`` assumption.
    """
    if dimension < 1:
        raise GraphError("hypercube dimension must be at least 1")
    d = int(dimension)
    n = 1 << d
    # One edge per (vertex, clear bit): flipping a 0-bit always increases u,
    # so taking only those directions yields each edge exactly once.  Each
    # bit's half of the vertices fills its own block of the narrow array.
    u = np.arange(n, dtype=np.int64)
    edges = np.empty((d * (n // 2), 2), dtype=_vertex_dtype(n))
    for bit, block in enumerate(np.split(edges, d)):
        masked = u[(u >> bit) & 1 == 0]
        block[:, 0] = masked
        block[:, 1] = masked ^ (1 << bit)
    return Graph(n, edges, name=f"hypercube(d={d})")


def torus_grid(rows: int, cols: int) -> Graph:
    """Build a 2-dimensional torus grid (4-regular when rows, cols >= 3)."""
    if rows < 3 or cols < 3:
        raise GraphError("torus grid needs at least 3 rows and 3 columns")
    rows, cols = int(rows), int(cols)
    n = rows * cols

    def vid(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    edges = set()
    for r in range(rows):
        for c in range(cols):
            u = vid(r, c)
            for v in (vid(r + 1, c), vid(r, c + 1)):
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges), name=f"torus({rows}x{cols})")


def random_regular_graph(
    num_vertices: int, degree: int, rng: np.random.Generator, *, max_attempts: int = 200
) -> Graph:
    """Sample a random d-regular graph via the configuration (pairing) model.

    Pairings with self loops or parallel edges are rejected and resampled, up
    to ``max_attempts`` times; if every attempt fails, a final pairing is
    made simple by local edge switches, so the function always returns a
    simple d-regular graph.  A uniform pairing is simple with probability
    about ``exp(-(d^2 - 1) / 4)`` (Bender and Canfield 1978; Bollobás 1980):
    0.135 at ``d = 3``, 1.6e-4 at ``d = 6``, 1.4e-7 at ``d = 8`` and 3e-16
    at ``d = 12``.  So the attempts pay off only for small ``d``; from about
    ``d = 6`` up the default 200 attempts nearly always all fail, and at the
    experiments' ``d >= 12`` every graph comes from the repair after 200
    wasted attempts.
    """
    n, d = int(num_vertices), int(degree)
    if n * d % 2 != 0:
        raise GraphError("n * d must be even for a d-regular graph to exist")
    if d >= n:
        raise GraphError("degree must be smaller than the number of vertices")
    if d < 1:
        raise GraphError("degree must be at least 1")

    # One int64 stub buffer serves every attempt and the repair; each refills
    # it and shuffles it in place, consuming the same draws as a fresh
    # ``np.repeat`` would.  Its pairs (consecutive stubs) become the edges.
    stubs = np.empty(n * d, dtype=np.int64)
    for _ in range(max_attempts):
        if _configuration_model_attempt(n, d, rng, stubs):
            break
    else:
        _configuration_model_with_repair(n, d, rng, stubs)
    edges = stubs.reshape(-1, 2).astype(_vertex_dtype(n))
    del stubs
    return Graph(n, edges, name=f"random_regular(n={n}, d={d})")


def _shuffled_stubs(n: int, d: int, rng: np.random.Generator, stubs: np.ndarray) -> None:
    """Refill ``stubs`` with ``d`` copies of each vertex, in order, and shuffle it."""
    stubs.reshape(n, d)[...] = np.arange(n, dtype=np.int64)[:, None]
    rng.shuffle(stubs)


def _configuration_model_attempt(
    n: int, d: int, rng: np.random.Generator, stubs: np.ndarray
) -> bool:
    """One attempt of the pairing model into ``stubs``; ``True`` if simple."""
    _shuffled_stubs(n, d, rng, stubs)
    first = stubs[0::2]
    second = stubs[1::2]
    if np.any(first == second):
        return False
    keys = _edge_keys(n, first, second)
    keys.sort()
    return not np.any(keys[1:] == keys[:-1])


def _configuration_model_with_repair(
    n: int, d: int, rng: np.random.Generator, stubs: np.ndarray, *, max_switches: int = 100000
) -> None:
    """Pairing model into ``stubs``, then double-edge switches to remove defects.

    The defect scan (self loops plus duplicate pairs, keeping each key's
    first occurrence) is vectorized per round; only the handful of switches
    runs in Python, consuming one ``rng.integers`` draw per defect in index
    order — the same stream consumption as the historical per-pair scan, so
    repaired samples are reproducible across versions.
    """
    _shuffled_stubs(n, d, rng, stubs)
    first = stubs[0::2]
    second = stubs[1::2]
    num_pairs = first.size

    for _ in range(max_switches):
        defects = _pairing_defects(n, first, second)
        if defects.size == 0:
            break
        for index in defects.tolist():
            other = int(rng.integers(num_pairs))
            second[index], second[other] = second[other], second[index]
    else:  # pragma: no cover - pathological inputs only
        raise GraphError("failed to repair configuration-model sample")


#: Bits a packed ``key << shift | index`` may use (an int64 stays positive).
_PACKED_BITS = 63


def _pairing_defects(n: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Ascending indices of the pairs that are self loops or repeat an earlier
    pair's edge.

    Each pair's key is packed above its index, so one in-place sort orders
    the pairs by key and, within a key, by index: the stable order, whose
    first entry per key is its first occurrence.  Where key and index do not
    fit :data:`_PACKED_BITS` together, a stable argsort gives the same order.
    A loop's key ``u * n + u`` is never a non-loop pair's ``lo * n + hi``,
    so loops claim no key that a non-loop pair could lose, and one scan of
    all keys finds the repeats.
    """
    loops = np.flatnonzero(first == second)
    num_pairs = first.size
    shift = max(int(num_pairs - 1).bit_length(), 1)
    keys = _edge_keys(n, first, second)
    if (n * n - 1).bit_length() + shift > _PACKED_BITS:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeats = order[1:][keys[1:] == keys[:-1]]
    else:
        key_dtype = keys.dtype
        packed = keys.astype(np.int64)
        del keys
        packed <<= shift
        packed |= np.arange(num_pairs, dtype=np.int64)
        packed.sort()
        ordered = np.empty(num_pairs, dtype=key_dtype)
        np.right_shift(packed, shift, out=ordered, casting="unsafe")
        later = np.flatnonzero(ordered[1:] == ordered[:-1]) + 1
        del ordered
        repeats = packed[later] & ((1 << shift) - 1)
    return np.union1d(loops, repeats)


def clique_path(num_cliques: int, clique_size: int) -> Graph:
    """Build a path of cliques joined by perfect matchings between neighbors.

    Each vertex has ``clique_size - 1`` edges inside its clique plus one
    matching edge to each adjacent clique, so interior cliques are
    ``(clique_size + 1)``-regular while the two end cliques have degree
    ``clique_size``.  For an exactly regular variant use :func:`clique_cycle`.

    This family realises the paper's remark that the broadcast time of push on
    regular(-ish) graphs can be polynomial (``Omega(n)`` for a path of
    d-cliques).
    """
    if num_cliques < 2:
        raise GraphError("need at least 2 cliques")
    if clique_size < 2:
        raise GraphError("clique size must be at least 2")
    k, s = int(num_cliques), int(clique_size)
    n = k * s
    # Intra-clique pairs: one triangular index pattern per clique base, then
    # the matchings between consecutive cliques.
    ti, tj = np.triu_indices(s, k=1)
    bases = np.arange(k, dtype=np.int64)[:, None] * s
    clique_edges = np.column_stack(((bases + ti).ravel(), (bases + tj).ravel()))
    left = np.arange((k - 1) * s, dtype=np.int64)
    matching_edges = np.column_stack((left, left + s))
    return Graph(
        n,
        np.concatenate([clique_edges, matching_edges]),
        name=f"clique_path(k={k}, s={s})",
    )


def clique_cycle(num_cliques: int, clique_size: int) -> Graph:
    """Build a cycle of cliques joined by perfect matchings (exactly regular).

    Every vertex has degree ``clique_size + 1``: ``clique_size - 1`` inside its
    clique and one matching edge to each of the two neighboring cliques.  The
    broadcast time of push on this family is ``Theta(num_cliques)``, i.e.
    polynomial in ``n`` for constant clique size — a regular family where all
    protocols are slow, complementing the fast random-regular case.
    """
    if num_cliques < 3:
        raise GraphError("need at least 3 cliques for a cycle")
    if clique_size < 2:
        raise GraphError("clique size must be at least 2")
    k, s = int(num_cliques), int(clique_size)
    n = k * s
    edges = set()
    for c in range(k):
        base = c * s
        for i in range(s):
            for j in range(i + 1, s):
                edges.add((base + i, base + j))
        nxt = ((c + 1) % k) * s
        for i in range(s):
            u, v = base + i, nxt + i
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges), name=f"clique_cycle(k={k}, s={s})")
