"""Graph construction: byte-identical CSR arrays in bounded memory.

``Graph`` builds its CSR arrays from one sorted array of directed slot keys,
and the configuration models pair their stubs in one reused buffer.  The
fingerprints below were recorded from the earlier construction (separate
key, ``lexsort`` and ``np.unique`` passes): every family must still emit the
same bytes.  The heap tests bound each build's transient memory.
"""

from __future__ import annotations

import functools
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.regular as regular
import repro.scenarios  # noqa: F401  (registers the corpus generators)
from repro.graphs import Graph, GraphError
from repro.graphs.builders import build_graph, registered_builders
from repro.graphs.heavy_binary_tree import heavy_binary_tree
from repro.graphs.regular import hypercube, random_regular_graph
from repro.graphs.siamese_tree import siamese_heavy_binary_tree
from repro.scenarios.generators import powerlaw_configuration
from repro.store.keys import graph_fingerprint

#: (family, builder params, edges, fingerprint): every family with a build,
#: at two sizes.
FAMILY_PINS = [
    (
        "star",
        {"num_leaves": 10},
        10,
        "f397b92e56821269a4108d1b35551132a9da9322946148cf806e5e46f565abf3",
    ),
    (
        "star",
        {"num_leaves": 1000},
        1000,
        "fbac748409f1b6bd2be33b9e363936cac9fb9efcd36b681bd9959d6d0b665a91",
    ),
    (
        "double_star",
        {"num_vertices": 12},
        11,
        "0d2b1185ac00dfea94004f5385572473971392d0b080641bd4002c23d063d47e",
    ),
    (
        "double_star",
        {"num_vertices": 1000},
        999,
        "8ba17436d3863a456166f6eaf9c0999a397d4e291541ad9ab94f1a4567e75367",
    ),
    (
        "heavy_binary_tree",
        {"num_vertices": 31},
        150,
        "94a1df7c0925702edb918111caceb98d14e71b0b1a5f18fd0d63b2ce69c37c76",
    ),
    (
        "heavy_binary_tree",
        {"num_vertices": 255},
        8382,
        "24d9666a11307f34bc5663a79c50b1f3eb547f8a9f7bd2da0ce52c1b922b3fb2",
    ),
    (
        "siamese_heavy_binary_tree",
        {"tree_vertices": 15},
        84,
        "fc80890932203a8ad12a0ea24fc91e3d772fa187a6986e1a6002f0394b8a00ad",
    ),
    (
        "siamese_heavy_binary_tree",
        {"tree_vertices": 127},
        4284,
        "a6ef01cda8d4e4a7a857d7976f23c9ef2b4360df6b0cc7f59d53563c49d55e84",
    ),
    (
        "cycle_of_stars_of_cliques",
        {"k": 3},
        66,
        "55b13f916d1d3166145397054e9e757b8aa950d0b428105a41a44fe2b2932827",
    ),
    (
        "cycle_of_stars_of_cliques",
        {"k": 5},
        405,
        "0e112fd1c8467692cda82d180d59e6a350eb4b3d78584c3915e902813dd0c81d",
    ),
    (
        "complete_graph",
        {"num_vertices": 5},
        10,
        "a28c7877b22bd3e146939ccdcae80bd6748061c65efbc8144d99b445aed7a563",
    ),
    (
        "complete_graph",
        {"num_vertices": 40},
        780,
        "565aa86095f22bf18b5a02961489e548d7068598bbae0cf95288005d10bdbf65",
    ),
    (
        "cycle_graph",
        {"num_vertices": 3},
        3,
        "dc1d02372b71ebf69aa12183c03eae72714fb7891557a21e77cca42057287e7a",
    ),
    (
        "cycle_graph",
        {"num_vertices": 100},
        100,
        "c9272cc4dcc96316363a049d95207a6e9a83a035ad6df666554d6ed9d8ee228e",
    ),
    (
        "hypercube",
        {"dimension": 3},
        12,
        "49a3fde0b3c4b1a95ea90f7f444bfc9fdce53c002d37abd01748234aff0a6e1a",
    ),
    (
        "hypercube",
        {"dimension": 10},
        5120,
        "f6b9c48c4b7e929ce67ec0cab2d3d1adc8765c661cef40a30d4899b93ddc9563",
    ),
    (
        "torus_grid",
        {"rows": 3, "cols": 4},
        24,
        "fe99c0b782c4b48b587cb012c8073acfc4ee182382b1c8b650091a2d224e5482",
    ),
    (
        "torus_grid",
        {"rows": 20, "cols": 30},
        1200,
        "3864da227fb2b35ab20c649a5d59a40fdbd9f38d65b157ccef1496b1b49a6a3b",
    ),
    (
        "random_regular_graph",
        {"num_vertices": 20, "degree": 4, "seed": 0},
        40,
        "bac81ec19183d9f692d1b8e4b71a747f5aaf9d5bbacead79e0dc1171dd9fb743",
    ),
    (
        "random_regular_graph",
        {"num_vertices": 200, "degree": 8, "seed": 1},
        800,
        "d2ad96d9d993e7eeb34aeb161dd66d04f69750b8b45c49bfd607641ff7c7f7bf",
    ),
    (
        "clique_path",
        {"num_cliques": 2, "clique_size": 3},
        9,
        "3ba82478ec11b7a72faf3c3dc15b9b773f0902e4bb357625f8be4790a5b0f910",
    ),
    (
        "clique_path",
        {"num_cliques": 10, "clique_size": 6},
        204,
        "1e907bcfd072df7fccdf0c9ae36e64862b8741519c0c3b0de2641cfe8737a99d",
    ),
    (
        "clique_cycle",
        {"num_cliques": 3, "clique_size": 2},
        9,
        "7be14a0add3ef2c779b6a02eed6d45adebf6ef25edf1ccf73496d304869f8ffb",
    ),
    (
        "clique_cycle",
        {"num_cliques": 8, "clique_size": 5},
        120,
        "480096cfcd9ad68cb0fcab1ecd62030929d19182a8ccd7e55834214ad23d9da7",
    ),
    (
        "circulant_graph",
        {"num_vertices": 10, "offsets": [1, 3]},
        20,
        "da1ba9194c61ba5cf93d71a9f8b09dff6784287d1cbce383f6af1b72eb05df68",
    ),
    (
        "circulant_graph",
        {"num_vertices": 100, "offsets": [1, 2, 7]},
        300,
        "2acc171acb6bd39c85c5676de5783d75daa0abc0070d8a970f9f9885644b0883",
    ),
    (
        "erdos_renyi",
        {"num_vertices": 30, "edge_probability": 0.2, "seed": 0},
        81,
        "2cdbdfb769a79c5d5891647e25af219169db302503ee870b23ba9a472d86115d",
    ),
    (
        "erdos_renyi",
        {"num_vertices": 500, "edge_probability": 0.02, "seed": 1},
        2521,
        "ab0993ec325d6248a007971bc24b4350c518d4b89e31557e387f4bb7860aefdd",
    ),
    (
        "connected_erdos_renyi",
        {"num_vertices": 30, "edge_probability": 0.3, "seed": 0},
        113,
        "c6316e7fe28953e24f046e7b1d2fb22415c469206cca5f152645c3ce353d8def",
    ),
    (
        "connected_erdos_renyi",
        {"num_vertices": 300, "edge_probability": 0.05, "seed": 1},
        2258,
        "cdc801da9d5a8f87f8f1d496fa6fcc2885230fe1b4c7102c168f4971c967915b",
    ),
    (
        "preferential_attachment",
        {"num_vertices": 30, "edges_per_vertex": 2, "seed": 0},
        56,
        "9e41465c5b7107b1c3870ad4b9a09feff206835bb240929bf0d0ce5ede02d82e",
    ),
    (
        "preferential_attachment",
        {"num_vertices": 500, "edges_per_vertex": 3, "seed": 1},
        1491,
        "7b1d4bfb41de7eb984a66837ea1a56480f6b74ddf2f1f1cac4ebcacebb3f700a",
    ),
    (
        "powerlaw_configuration",
        {"num_vertices": 100, "exponent": 2.5, "min_degree": 2, "seed": 0},
        163,
        "dfb8225395842a69745b94f26d07923e70a6eb8eaeed9083d171d13df854223d",
    ),
    (
        "powerlaw_configuration",
        {"num_vertices": 2000, "exponent": 2.2, "min_degree": 1, "max_degree": 40, "seed": 1},
        2141,
        "46becec52c46b9fe7b46a19e033fd6a6ea7a8edcf4feba3663f975744a041f8e",
    ),
    (
        "stochastic_block_model",
        {"num_vertices": 60, "num_blocks": 3, "p_in": 0.3, "p_out": 0.02, "seed": 0},
        170,
        "7b550ce105127b91934c89a5527e5135420cd6b9846fdff1144cf6c396617a2d",
    ),
    (
        "stochastic_block_model",
        {"num_vertices": 600, "num_blocks": 4, "p_in": 0.05, "p_out": 0.002, "seed": 1},
        2574,
        "0f9d3c85cb522edc772e6e1cfe7e269569bb6f64ab0e49fc8fc1c1585a81a305",
    ),
    (
        "random_geometric",
        {"num_vertices": 50, "radius": 0.3, "seed": 0},
        237,
        "e3d868c2763962468940de33ec02c6c0a987e0b1e10f3e59e9e8a1883bd79448",
    ),
    (
        "random_geometric",
        {"num_vertices": 800, "radius": 0.06, "seed": 1},
        3339,
        "434ff18903252d87dc3de153c1541dce4e9f5c6a93f7a7f8ecbb49201a569c02",
    ),
]

#: (n, d, seed, fingerprint).  The d = 3 pairings are simple often enough
#: that the attempt loop returns them; the others come from the repair.
REGULAR_PINS = [
    (30, 3, 0, "1027475e7dae1341d021bef0a101ef78f8390cf19098d3b066ccf0c474276943"),
    (30, 3, 1, "b879aa6cace9dd51f4eaf92638e408245825a29af055f75ce387e02c4fc4a71f"),
    (100, 3, 2, "c5354a6d9d2b0dff1efa33a36d47d120c990684e7faeb1699bdb5790070e3001"),
    (100, 3, 3, "cb70583d9c05d93263f7ecd42e8c67301e0f8abee3b68d239ba3a65f32ba4445"),
    (64, 6, 4, "4a5e5f32c1d5657d8045f9f4fccabd1b09ba2aa392c2bf87acd5f9a3d1759fcb"),
    (1024, 20, 5, "490190b544c07db8282ecf5a61c6a93de0cfaac9734fa04f83c76c61d3179f09"),
    (16384, 12, 6, "19fc2920be2075a6ce3ce92783ea60e821f6f88802faf900c7abf42994ab4291"),
]
ATTEMPT_LOOP = {(30, 3), (100, 3)}

#: (n, exponent, seed, edges, fingerprint).  The n = 40 seeds leave a vertex
#: with no edges after the erasure, so they take the re-attachment pass.
POWERLAW_PINS = [
    (2**12, 2.5, 7, 8124, "ea5e34c9490788c0374e8550977baf2be56c3f5162678f3af6884a46f0e4f19b"),
    (40, 3.0, 8, 46, "61e74e046f232ce97bb0caeb6b73a5454dc8137fcc7626fc14fe068b32b70f8f"),
    (40, 3.0, 12, 54, "47b8debae110700cecd5659f8b2e53bcebb569bf758aec32a97a502c0a8f2ec8"),
]


def _no_repair(*args, **kwargs):
    raise AssertionError("the attempt loop was expected to return this pairing")


class TestPinnedBytes:
    def test_every_family_with_a_build_is_pinned(self):
        # "file" is the ingest family: it reads an edge list, it builds nothing.
        assert {family for family, *_ in FAMILY_PINS} == set(registered_builders()) - {"file"}

    @pytest.mark.parametrize("family, params, edges, fingerprint", FAMILY_PINS)
    def test_family(self, family, params, edges, fingerprint):
        graph = build_graph(family, params)
        assert graph.num_edges == edges
        assert graph_fingerprint(graph) == fingerprint

    @pytest.mark.parametrize("n, d, seed, fingerprint", REGULAR_PINS)
    def test_random_regular(self, monkeypatch, n, d, seed, fingerprint):
        if (n, d) in ATTEMPT_LOOP:
            monkeypatch.setattr(regular, "_configuration_model_with_repair", _no_repair)
        graph = random_regular_graph(n, d, np.random.default_rng(seed))
        assert graph.is_regular() and graph.regularity_degree() == d
        assert graph_fingerprint(graph) == fingerprint

    @pytest.mark.parametrize(
        "n, d, seed, fingerprint", [pin for pin in REGULAR_PINS if pin[:2] in {(64, 6), (1024, 20)}]
    )
    def test_repair_without_packed_keys(self, monkeypatch, n, d, seed, fingerprint):
        # The defect scan's stable-argsort branch, taken where a pair key and
        # a pair index do not fit one int64 together, repairs the same way.
        monkeypatch.setattr(regular, "_PACKED_BITS", 0)
        graph = random_regular_graph(n, d, np.random.default_rng(seed))
        assert graph_fingerprint(graph) == fingerprint

    @pytest.mark.parametrize("n, exponent, seed, edges, fingerprint", POWERLAW_PINS)
    def test_powerlaw(self, n, exponent, seed, edges, fingerprint):
        graph = powerlaw_configuration(n, exponent, np.random.default_rng(seed))
        assert graph.num_edges == edges
        assert graph_fingerprint(graph) == fingerprint


def lexsort_csr(n, pairs):
    """The CSR arrays of ``pairs`` the direct way: both directions, ``lexsort``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))]


def laid_out(pairs, dtype, layout):
    """``pairs`` as ``Graph`` may receive them."""
    if layout == "tuples":
        return [(int(u), int(v)) for u, v in pairs]
    array = np.array(pairs, dtype=dtype).reshape(-1, 2)
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided":
        wide = np.zeros((len(array), 5), dtype=dtype)
        wide[:, 1::3] = array
        return wide[:, 1::3]
    if layout == "reversed":
        return array[::-1]
    return array


@st.composite
def simple_edge_lists(draw):
    """``(n, pairs)``: distinct undirected edges in random order and orientation.

    ``n`` straddles ``2**16``, where the slot keys widen from uint32 to int64.
    """
    n = draw(st.one_of(st.integers(2, 40), st.sampled_from([2**16 - 1, 2**16, 2**16 + 1])))
    ids = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    pairs = draw(
        st.lists(
            st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
            max_size=60,
            unique_by=lambda p: (min(p), max(p)),
        )
    )
    return n, pairs


class TestSlotKeyConstruction:
    @settings(max_examples=80, deadline=None)
    @given(
        simple_edge_lists(),
        st.sampled_from([np.uint16, np.int32, np.int64]),
        st.sampled_from(["contiguous", "fortran", "strided", "reversed", "tuples"]),
    )
    def test_matches_a_lexsort_csr(self, graph_input, dtype, layout):
        n, pairs = graph_input
        if dtype is np.uint16 and n - 1 > np.iinfo(np.uint16).max:
            dtype = np.uint32
        graph = Graph(n, laid_out(pairs, dtype, layout))
        indptr, indices = lexsort_csr(n, pairs)
        assert graph.num_edges == len(pairs)
        assert graph.indptr.dtype == graph.indices.dtype == graph.degrees.dtype == np.int64
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.indices, indices)
        assert np.array_equal(graph.degrees, np.diff(indptr))

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(0, 3)], "edge (0, 3) out of range for n=3"),
            (3, [(0, 1), (-1, 2)], "edge (-1, 2) out of range for n=3"),
            (
                5,
                np.array([[0, 1], [2, -4], [7, 1]], dtype=np.int32),
                "edge (2, -4) out of range for n=5",
            ),
            (
                3,
                np.array([[0, 1], [65535, 2]], dtype=np.int32),
                "edge (65535, 2) out of range for n=3",
            ),
            (70000, np.array([[0, 69999], [-1, 5]]), "edge (-1, 5) out of range for n=70000"),
            (
                70000,
                np.array([[0, 70000]], dtype=np.uint32),
                "edge (0, 70000) out of range for n=70000",
            ),
            (3, [(1, 1), (0, 5)], "edge (0, 5) out of range for n=3"),
            (4, [(0, 1), (2, 2), (3, 3)], "self loop (2, 2) is not allowed"),
            (4, np.array([[0, 1], [3, 3]], dtype=np.uint16), "self loop (3, 3) is not allowed"),
            (4, [(0, 1), (1, 0)], "duplicate edges are not allowed"),
            (
                4,
                np.array([[2, 3], [0, 1], [3, 2]], dtype=np.uint16),
                "duplicate edges are not allowed",
            ),
            (70000, np.array([[5, 69999], [69999, 5]]), "duplicate edges are not allowed"),
        ],
    )
    def test_invalid_edges_keep_their_messages(self, n, edges, message):
        with pytest.raises(GraphError) as excinfo:
            Graph(n, edges)
        assert str(excinfo.value) == message


MiB = 2**20

#: Each build's bound on its heap peak, in MiB: 60% of its traced peak under
#: the earlier construction (11.70, 5.53, 19.37, 36.74 and 15.47 MiB).
HEAP_BOUNDS = {
    "random_regular_graph(2**14, 12)": 7.0,
    "powerlaw_configuration(2**14, 2.5)": 3.3,
    "heavy_binary_tree(1023)": 11.6,
    "siamese_heavy_binary_tree(1023)": 22.0,
    "hypercube(14)": 9.2,
}
BUILDS = {
    "random_regular_graph(2**14, 12)": lambda: random_regular_graph(
        2**14, 12, np.random.default_rng(0)
    ),
    "powerlaw_configuration(2**14, 2.5)": lambda: powerlaw_configuration(
        2**14, 2.5, np.random.default_rng(0)
    ),
    "heavy_binary_tree(1023)": lambda: heavy_binary_tree(1023),
    "siamese_heavy_binary_tree(1023)": lambda: siamese_heavy_binary_tree(1023),
    "hypercube(14)": lambda: hypercube(14),
}


@functools.lru_cache(maxsize=None)
def traced_build(name):
    """Heap peak and heap kept above the start of build ``name``, in MiB.

    An untraced first build pays the lazy imports and caches, so the traced
    one measures the build alone.
    """
    build = BUILDS[name]
    build()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        graph = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.num_edges > 0
    return (peak - start) / MiB, (kept - start) / MiB


class TestBuildHeap:
    @pytest.mark.parametrize("name", list(HEAP_BOUNDS))
    def test_transient_heap_is_bounded(self, name):
        peak, _ = traced_build(name)
        assert peak <= HEAP_BOUNDS[name]

    def test_random_regular_peak_is_under_twice_what_the_graph_keeps(self):
        peak, kept = traced_build("random_regular_graph(2**14, 12)")
        assert peak < 2 * kept
