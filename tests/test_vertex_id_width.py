"""Vertex-id width of the samplers: narrow ids never move a bit.

Above a size threshold the kernels' samplers gather neighbors from a copy of
the CSR adjacency with ``uint16`` ids (``n <= 2**16``) or ``uint32`` ids
(see :func:`repro.core.kernels.base.vertex_id_dtype`).  These tests pin the
six protocols' results at the width boundary to literals computed with the
int64 samplers, check every sampling path against an int64 reference built
from the same raw values, and check that observers only ever see int64 ids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import run_batch
from repro.core.kernels import base as kernel_base
from repro.core.kernels.base import batch_generator, vertex_id_dtype
from repro.core.kernels.hybrid import HybridKernel
from repro.core.kernels.meet_exchange import MeetExchangeKernel
from repro.core.kernels.push_pull import PushPullKernel
from repro.core.observers import Observer, ObserverGroup
from repro.graphs import double_star, heavy_binary_tree, hypercube, random_regular_graph, star
from repro.scenarios.generators import powerlaw_configuration

PROTOCOLS = (
    "push",
    "pull",
    "push-pull",
    "visit-exchange",
    "meet-exchange",
    "hybrid-ppull-visitx",
)

_BUILDERS = {
    # n = 2**16: vertex 65535 exists and 65535 * 16 overflows uint16.
    "hypercube-2e16": lambda: hypercube(16),
    "powerlaw-2e16": lambda: powerlaw_configuration(
        1 << 16, 2.5, np.random.default_rng(1), min_degree=2
    ),
    # n = 2**16 + 2: uint32 ids.
    "regular-2e16+2": lambda: random_regular_graph(
        (1 << 16) + 2, 12, np.random.default_rng(0), max_attempts=1
    ),
    "powerlaw-2e16+2": lambda: powerlaw_configuration(
        (1 << 16) + 2, 2.5, np.random.default_rng(1), min_degree=2
    ),
}

_WIDTHS = {
    "hypercube-2e16": np.uint16,
    "powerlaw-2e16": np.uint16,
    "regular-2e16+2": np.uint32,
    "powerlaw-2e16+2": np.uint32,
}

#: ``(broadcast times, messages sent)`` of seeds 11 and 12 from source
#: ``n - 1``, computed with int64 vertex ids throughout.  The tests run
#: them with a 500-round budget, so a wrong sample fails fast.
PINNED = {
    "hypercube-2e16": {
        "push": ([33, 34], [917387, 953037]),
        "pull": ([26, 26], [1207936, 1203912]),
        "push-pull": ([18, 19], [1179648, 1245184]),
        "visit-exchange": ([28, 26], [0, 0]),
        "meet-exchange": ([49, 42], [0, 0]),
        "hybrid-ppull-visitx": ([16, 16], [1048576, 1048576]),
    },
    "powerlaw-2e16": {
        "push": ([303, 372], [17957594, 22620317]),
        "pull": ([33, 34], [1178672, 1358207]),
        "push-pull": ([19, 18], [1245184, 1179648]),
        "visit-exchange": ([49, 48], [0, 0]),
        "meet-exchange": ([51, 47], [0, 0]),
        "hybrid-ppull-visitx": ([13, 15], [851968, 983040]),
    },
    "regular-2e16+2": {
        "push": ([32, 31], [922217, 835327]),
        "pull": ([24, 24], [1194540, 1168978]),
        "push-pull": ([16, 15], [1048608, 983070]),
        "visit-exchange": ([28, 27], [0, 0]),
        "meet-exchange": ([32, 33], [0, 0]),
        "hybrid-ppull-visitx": ([13, 13], [851994, 851994]),
    },
    "powerlaw-2e16+2": {
        "push": ([433, 399], [26605256, 24440704]),
        "pull": ([41, 34], [1813551, 1263353]),
        "push-pull": ([19, 21], [1245222, 1376298]),
        "visit-exchange": ([59, 65], [0, 0]),
        "meet-exchange": ([66, 40], [0, 0]),
        "hybrid-ppull-visitx": ([15, 15], [983070, 983070]),
    },
}

#: Frontier modes each graph runs in: every mode on the cheap regular
#: graphs, the per-round choice on the power-law ones.
_MODES = {
    "hypercube-2e16": ("auto", "dense", "sparse"),
    "powerlaw-2e16": ("auto",),
    "regular-2e16+2": ("auto", "dense", "sparse"),
    "powerlaw-2e16+2": ("auto",),
}


@pytest.fixture(scope="module")
def boundary_graphs():
    return {name: build() for name, build in _BUILDERS.items()}


class TestWidthRule:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_boundary_graphs_are_narrow(self, boundary_graphs, name):
        graph = boundary_graphs[name]
        assert vertex_id_dtype(graph) == _WIDTHS[name]
        narrow = kernel_base.sampling_adjacency(graph)
        assert narrow.dtype == _WIDTHS[name]
        assert np.array_equal(narrow, graph.indices)
        # Built once and cached on the graph; the public adjacency stays int64.
        assert kernel_base.sampling_adjacency(graph) is narrow
        assert graph.indices.dtype == np.int64
        assert graph.neighbors(graph.num_vertices - 1).dtype == np.int64

    def test_small_graphs_keep_int64(self):
        graph = random_regular_graph(4096, 12, np.random.default_rng(0), max_attempts=1)
        assert vertex_id_dtype(graph) == np.int64
        assert kernel_base.sampling_adjacency(graph).base is graph.indices.base


class TestPinnedResults:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_results_match_the_int64_literals(self, boundary_graphs, name, protocol):
        graph = boundary_graphs[name]
        for mode in _MODES[name]:
            batch = run_batch(
                protocol,
                graph,
                graph.num_vertices - 1,
                seeds=[11, 12],
                max_rounds=500,
                frontier=mode,
            )
            got = (batch.broadcast_times.tolist(), batch.messages_sent.tolist())
            assert got == PINNED[name][protocol], f"{protocol} on {name}, {mode}"
            assert batch.broadcast_times.dtype == np.int64
            assert batch.messages_sent.dtype == np.int64


def _reference_offsets(sampler, graph, raw, vertices):
    """int64 fixed-point CSR slots of ``raw`` values drawn at ``vertices``."""
    degrees = graph.degrees[vertices]
    within = (raw.astype(np.int64) * degrees) >> sampler.offset_bits
    return graph.indptr[vertices] + within


def _round_raw(sampler, k):
    """The raw values the sampler consumed in the round just sampled."""
    start = sampler._kernel._draw_phase * sampler._stream["stride"]
    return sampler._stream["values"][:k, start : start + sampler.width]


class TestSamplersMatchInt64:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_per_vertex_samples(self, boundary_graphs, name):
        graph = boundary_graphs[name]
        kernel = PushPullKernel()
        kernel.initialize(graph, 0, [batch_generator(s) for s in (3, 4)])
        sampler = kernel._callee_sampler
        vertices = np.arange(graph.num_vertices)
        for _ in range(5):
            kernel._begin_round()
            sampled = sampler.sample_per_vertex(2)
            assert sampled.dtype == _WIDTHS[name]
            offsets = _reference_offsets(sampler, graph, _round_raw(sampler, 2), vertices)
            assert np.array_equal(sampler.offsets[:2], offsets)
            assert np.array_equal(sampled, graph.indices[offsets])

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_walk_samples(self, boundary_graphs, name, lazy):
        graph = boundary_graphs[name]
        n = graph.num_vertices
        kernel = MeetExchangeKernel(lazy=lazy)
        kernel.initialize(graph, 0, [batch_generator(s) for s in (5, 6)])
        sampler = kernel._walk_sampler
        # Walkers on the top vertex ids, where narrow row arithmetic overflows.
        kernel.positions[:] = (n - 1 - np.arange(kernel.num_agents())) % n
        for _ in range(5):
            kernel._begin_round()
            positions = kernel.positions[:2].copy()
            moved = sampler.sample_walk(2, positions)
            assert moved.dtype == _WIDTHS[name]
            offsets = _reference_offsets(sampler, graph, _round_raw(sampler, 2), positions)
            expected = graph.indices[offsets]
            if lazy:
                lazy_start = kernel._draw_phase * sampler._lazy_stream["stride"]
                coins = sampler._lazy_stream["values"][:2, lazy_start : lazy_start + sampler.width]
                expected = np.where(coins < 1 << 15, positions, expected)
            assert np.array_equal(moved, expected)
            kernel.positions[:2] = moved

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_sparse_callees_and_neighbors(self, boundary_graphs, name):
        graph = boundary_graphs[name]
        n = graph.num_vertices
        kernel = HybridKernel()
        kernel.initialize(graph, 0, [batch_generator(7)])
        sampler = kernel._callee_sampler
        kernel._begin_round()
        start = kernel._raw_round_start(1, sampler._stream)
        ids = np.array([n - 1, n - 2, 0, n // 2, n - 1], dtype=np.int32)
        raw = sampler._stream["values"][0, start + ids]
        callees = kernel._sparse_callees(0, start, ids)
        assert callees.dtype == _WIDTHS[name]
        assert np.array_equal(callees, graph.indices[_reference_offsets(sampler, graph, raw, ids)])
        neighbors = kernel._neighbors(ids)
        assert np.array_equal(neighbors, graph._frontier_neighbors(ids.astype(np.int64)))


class _EdgeDtypes(Observer):
    """Asserts that every edge batch it is handed holds int64 graph edges."""

    def __init__(self, graph):
        self.graph = graph
        self.batches = 0

    def on_edges_used(self, us, vs):
        self.batches += 1
        assert us.dtype == vs.dtype == np.int64
        for u, v in list(zip(us, vs))[:3]:
            assert self.graph.has_edge(int(u), int(v))


class TestObserversSeeInt64:
    @pytest.mark.parametrize(
        "protocol, kwargs",
        [
            ("push", {}),
            ("pull", {}),
            ("push-pull", {}),
            ("push-pull", {"track_all_exchanges": True}),
            ("visit-exchange", {}),
            ("visit-exchange", {"track_edge_traversals": True}),
        ],
    )
    def test_edge_batches_are_int64(self, boundary_graphs, protocol, kwargs):
        graph = boundary_graphs["hypercube-2e16"]
        observer = _EdgeDtypes(graph)
        plain = run_batch(protocol, graph, graph.num_vertices - 1, seeds=[11], **kwargs)
        observed = run_batch(
            protocol,
            graph,
            graph.num_vertices - 1,
            seeds=[11],
            observers=[ObserverGroup([observer])],
            **kwargs,
        )
        assert observer.batches > 0
        assert observed.broadcast_times.tolist() == plain.broadcast_times.tolist()


def _small_cases():
    rng = np.random.default_rng(11)
    return [
        ("star", star(60), 0),
        ("double_star", double_star(64), 1),
        ("heavy_tree", heavy_binary_tree(63), 0),
        ("regular", random_regular_graph(64, 6, rng), 3),
        ("hypercube", hypercube(6), 5),
    ]


def _fingerprint(batch):
    return (
        batch.broadcast_times.tolist(),
        batch.messages_sent.tolist(),
        batch.vertex_histories,
        batch.agent_histories,
    )


_VARIANTS = {
    "plain": {},
    "dynamics": {"dynamics": {"kind": "bernoulli-edges", "rate": 0.2, "seed": 3}},
    "observers": {"observers": "edges"},
}
_AGENT_VARIANTS = {
    "churn": {"death_rate": 0.05},
    "lazy": {"lazy": True},
}


class TestForcedNarrowIsBitIdentical:
    """Every kernel path at every width on small graphs: the threshold is
    patched so the small graphs take the narrow path."""

    @pytest.mark.parametrize("width", [np.uint16, np.uint32])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_narrow_matches_int64(self, monkeypatch, protocol, width):
        variants = dict(_VARIANTS)
        if protocol in ("visit-exchange", "meet-exchange", "hybrid-ppull-visitx"):
            variants.update(_AGENT_VARIANTS)
        if protocol == "visit-exchange":
            variants["injections"] = {"injections": [(0, 0), (2, 5), (4, 9)]}

        def run_all():
            out = {}
            for name, graph, source in _small_cases():
                for variant, kwargs in variants.items():
                    kwargs = dict(kwargs)
                    if kwargs.get("observers") == "edges":
                        kwargs["observers"] = [
                            ObserverGroup([_EdgeDtypes(graph)]) for _ in range(3)
                        ]
                    for frontier in ("dense", "sparse"):
                        out[name, variant, frontier] = _fingerprint(
                            run_batch(
                                protocol,
                                graph,
                                source,
                                seeds=[21, 22, 23],
                                max_rounds=150,
                                record_history=True,
                                frontier=frontier,
                                **kwargs,
                            )
                        )
            return out

        wide = run_all()
        monkeypatch.setattr(kernel_base, "vertex_id_dtype", lambda graph: np.dtype(width))
        assert run_all() == wide
