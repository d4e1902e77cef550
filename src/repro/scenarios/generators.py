"""Generative graph families beyond the paper's hand-built examples.

The paper's evaluation runs on the five Figure-1 families plus regular
graphs; the corpus layer adds the three standard models of "real-world"
structure the complex-networks literature reaches for first:

* **power-law degrees** (:func:`powerlaw_configuration`): an erased
  configuration model with ``P(deg = k) ∝ k^-exponent`` — hub-dominated
  like the star and double star, but with a full spectrum of hub sizes;
* **communities** (:func:`stochastic_block_model`): dense blocks joined by
  sparse cuts, the planted-partition shape on which push-pull's bridge
  problem (Lemma 3) generalizes;
* **geometry** (:func:`random_geometric`): points in the unit square joined
  within a radius — road/commute-like locality with no hubs at all.

All three build through vectorized numpy (stub pairing, batch geometric
skip sampling, KD-tree range queries) so a 2^20-vertex instance is
constructed in seconds, and all three are registered with the versioned
builder registry so corpus sweeps get the zero-construction warm path.
:func:`random_geometric` prefers :mod:`scipy.spatial` when importable and
falls back to a chunked brute-force sweep that yields the identical edge
set, so the builder version covers one algorithm, not two.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graphs.builders import register_builder
from ..graphs.graph import Graph, GraphError, _edge_keys, _unique_inplace
from ..graphs.random_graphs import _triangular_pairs

__all__ = [
    "BUILDER_VERSIONS",
    "powerlaw_configuration",
    "random_geometric",
    "stochastic_block_model",
]

#: Per-family builder versions; bump a family when its construction changes
#: the instance it emits for the same parameters (this invalidates
#: manifest-trusted warm starts, never results).
BUILDER_VERSIONS = {
    "powerlaw_configuration": 1,
    "stochastic_block_model": 1,
    "random_geometric": 1,
}
#: Each family's build from its builder params (``seed`` seeds the draw).
_BUILDS = {
    "powerlaw_configuration": lambda p: powerlaw_configuration(
        p["num_vertices"],
        p["exponent"],
        np.random.default_rng(p["seed"]),
        min_degree=p["min_degree"],
        max_degree=p.get("max_degree"),
    ),
    "stochastic_block_model": lambda p: stochastic_block_model(
        p["num_vertices"], p["num_blocks"], p["p_in"], p["p_out"], np.random.default_rng(p["seed"])
    ),
    "random_geometric": lambda p: random_geometric(
        p["num_vertices"], p["radius"], np.random.default_rng(p["seed"])
    ),
}
for _family, _version in BUILDER_VERSIONS.items():
    register_builder(_family, _version, _BUILDS[_family])


def _dedupe_undirected(num_vertices: int, us: np.ndarray, vs: np.ndarray):
    """Canonicalize (u, v) arrays to unique undirected pairs, no self-loops.

    The pairs come back ascending as ``(lo, hi)`` arrays in the graph's
    narrow key width.
    """
    n = int(num_vertices)
    keys = _edge_keys(n, us, vs)
    keys = keys[us != vs]
    keys = _unique_inplace(keys)
    return keys // keys.dtype.type(n), keys % keys.dtype.type(n)


def powerlaw_configuration(
    num_vertices: int,
    exponent: float,
    rng: np.random.Generator,
    *,
    min_degree: int = 2,
    max_degree: Optional[int] = None,
) -> Graph:
    """Sample an erased configuration-model graph with power-law degrees.

    Target degrees are drawn i.i.d. from ``P(k) ∝ k^-exponent`` on
    ``[min_degree, max_degree]`` (``max_degree`` defaults to ``~sqrt(n)``,
    the structural-cutoff under which the erased model stays close to the
    target sequence), stubs are paired by one global permutation, and
    self-loops/multi-edges are erased.  Vertices left with no edges by the
    erasure are re-attached to a random partner so the degree sequence has
    no zeros; the graph may still be disconnected for steep exponents.
    """
    n = int(num_vertices)
    gamma = float(exponent)
    k_min = int(min_degree)
    if n < 4:
        raise GraphError("powerlaw_configuration needs at least 4 vertices")
    if gamma <= 1.0:
        raise GraphError("power-law exponent must be > 1")
    if k_min < 1:
        raise GraphError("min_degree must be at least 1")
    k_max = int(max_degree) if max_degree is not None else max(k_min + 1, int(np.sqrt(n)))
    if k_max <= k_min:
        raise GraphError("max_degree must exceed min_degree")
    if k_max >= n:
        raise GraphError("max_degree must be below the vertex count")

    support = np.arange(k_min, k_max + 1, dtype=np.float64)
    weights = support**-gamma
    degrees = rng.choice(
        np.arange(k_min, k_max + 1), size=n, p=weights / weights.sum()
    ).astype(np.int64)
    if int(degrees.sum()) % 2 == 1:
        degrees[0] += 1

    # ``rng.permutation`` of an array is a copy shuffled in place: shuffling
    # the stubs themselves consumes the same draws without the copy.
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    us, vs = _dedupe_undirected(n, stubs[0::2], stubs[1::2])
    del stubs

    touched = np.zeros(n, dtype=bool)
    touched[us] = True
    touched[vs] = True
    lonely = np.flatnonzero(~touched)
    if lonely.size:
        partners = rng.integers(0, n, size=lonely.size)
        clash = partners == lonely
        partners[clash] = (partners[clash] + 1) % n
        us = np.concatenate([us, lonely])
        vs = np.concatenate([vs, partners])
        us, vs = _dedupe_undirected(n, us, vs)

    edges = np.stack([us, vs], axis=1)
    return Graph(
        n, edges, name=f"powerlaw_configuration(n={n}, gamma={gamma:g})"
    )


def _sample_pair_indices(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of a Bernoulli(p) subset of ``range(total)``, batch-geometric.

    Vectorized geometric skip sampling: draw skip gaps in batches sized to
    cover the range with high probability, extend on the rare shortfall.
    Expected work is O(total * p), independent of ``total`` itself.
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    expected = total * p
    batch = int(expected + 6.0 * np.sqrt(expected) + 16.0)
    positions = rng.geometric(p, size=batch).astype(np.int64).cumsum() - 1
    while positions.size == 0 or positions[-1] < total - 1:
        extra = rng.geometric(p, size=batch).astype(np.int64).cumsum()
        positions = np.concatenate([positions, positions[-1] + extra]) if positions.size else extra - 1
    return positions[positions < total]


def stochastic_block_model(
    num_vertices: int,
    num_blocks: int,
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
) -> Graph:
    """Sample a planted-partition stochastic block model.

    Vertices are split into ``num_blocks`` contiguous near-equal blocks;
    each intra-block pair is an edge with probability ``p_in`` and each
    inter-block pair with probability ``p_out``.  Sampling is batch
    geometric skipping per block pair, so the cost is proportional to the
    number of edges, not the number of pairs — a 2^20-vertex sparse
    instance is constructed in seconds.
    """
    n = int(num_vertices)
    b = int(num_blocks)
    p_in, p_out = float(p_in), float(p_out)
    if n < 2:
        raise GraphError("stochastic_block_model needs at least 2 vertices")
    if b < 1 or b > n:
        raise GraphError("num_blocks must lie in [1, num_vertices]")
    for label, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"{label} must lie in [0, 1]")

    sizes = np.full(b, n // b, dtype=np.int64)
    sizes[: n % b] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    all_us: List[np.ndarray] = []
    all_vs: List[np.ndarray] = []
    for block in range(b):
        s = int(sizes[block])
        if s >= 2 and p_in > 0.0:
            idx = _sample_pair_indices(s * (s - 1) // 2, p_in, rng)
            if idx.size:
                u, v = _triangular_pairs(idx, s)
                all_us.append(u + starts[block])
                all_vs.append(v + starts[block])
        if p_out > 0.0:
            for other in range(block + 1, b):
                t = int(sizes[other])
                idx = _sample_pair_indices(s * t, p_out, rng)
                if idx.size:
                    all_us.append(idx // t + starts[block])
                    all_vs.append(idx % t + starts[other])

    if all_us:
        edges = np.stack(
            [np.concatenate(all_us), np.concatenate(all_vs)], axis=1
        )
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return Graph(
        n,
        edges,
        name=f"stochastic_block_model(n={n}, b={b}, p_in={p_in:g}, p_out={p_out:g})",
    )


def _geometric_pairs_bruteforce(points: np.ndarray, radius: float, *, chunk: int = 2048):
    """All pairs within ``radius``, by chunked dense distance blocks.

    The scipy-free fallback: exact, vectorized, but quadratic in n — fine
    for tests and small corpora, while large instances should have scipy
    available.  Returns the same pair set as the KD-tree path.
    """
    n = len(points)
    r2 = radius * radius
    us: List[np.ndarray] = []
    vs: List[np.ndarray] = []
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        rest = points[start:]
        d2 = ((block[:, None, :] - rest[None, :, :]) ** 2).sum(axis=-1)
        iu, iv = np.nonzero(d2 <= r2)
        keep = iv > iu
        us.append(iu[keep].astype(np.int64) + start)
        vs.append(iv[keep].astype(np.int64) + start)
    return np.concatenate(us), np.concatenate(vs)


def random_geometric(
    num_vertices: int,
    radius: float,
    rng: np.random.Generator,
    *,
    attach_isolated: bool = True,
) -> Graph:
    """Sample a random geometric graph on the unit square.

    ``num_vertices`` points are placed uniformly at random and joined
    whenever their Euclidean distance is at most ``radius`` (expected mean
    degree ``≈ π r² n`` away from the boundary).  With ``attach_isolated``
    (the default) every isolated point is connected to its nearest
    neighbor, so broadcast can reach all vertices even near the
    connectivity threshold.  Uses a KD-tree range query when scipy is
    importable and an identical-output brute-force sweep otherwise.
    """
    n = int(num_vertices)
    r = float(radius)
    if n < 2:
        raise GraphError("random_geometric needs at least 2 vertices")
    if not 0.0 < r <= np.sqrt(2.0):
        raise GraphError("radius must lie in (0, sqrt(2)]")

    points = rng.random((n, 2))
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        cKDTree = None
    if cKDTree is not None:
        tree = cKDTree(points)
        pairs = tree.query_pairs(r, output_type="ndarray")
        us = pairs[:, 0].astype(np.int64)
        vs = pairs[:, 1].astype(np.int64)
    else:
        us, vs = _geometric_pairs_bruteforce(points, r)

    if attach_isolated:
        touched = np.zeros(n, dtype=bool)
        touched[us] = True
        touched[vs] = True
        lonely = np.flatnonzero(~touched)
        if lonely.size:
            if cKDTree is not None:
                _, nearest = tree.query(points[lonely], k=2)
                partners = nearest[:, 1].astype(np.int64)
            else:
                d2 = ((points[lonely][:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
                d2[np.arange(lonely.size), lonely] = np.inf
                partners = d2.argmin(axis=1).astype(np.int64)
            us = np.concatenate([us, lonely])
            vs = np.concatenate([vs, partners])
            us, vs = _dedupe_undirected(n, us, vs)

    edges = np.stack([us, vs], axis=1)
    return Graph(n, edges, name=f"random_geometric(n={n}, r={r:g})")
