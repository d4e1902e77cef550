"""The kernels' scratch arena: shared round scratch that never moves a bit.

A kernel hands out its per-round scratch from one arena of flat buffers
keyed by role and dtype (see "Scratch arena" in
:mod:`repro.core.kernels.base`), so the hybrid's vertex half and agent half
borrow the same sampler and flat-index buffers.  These tests pin results
where buffers are shared to literals computed before the arena existed,
check that the halves really share their memory and that the hybrid's heap
peak is well below the sum of its two halves', and read the working set
that traced runs report per cell.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.core.batch import run_batch
from repro.core.kernels.base import BatchKernel, batch_generator
from repro.core.kernels.hybrid import HybridKernel
from repro.core.kernels.push_pull import PushPullKernel
from repro.graphs import random_regular_graph
from repro.scenarios.generators import powerlaw_configuration
from repro.telemetry import TRACE_ENV_VAR
from repro.telemetry.tracing import read_events, trace_files

_GRAPHS = {
    # uint16 adjacency, 16-bit fixed-point offsets (int32 wide type).
    "regular-2e14": lambda: random_regular_graph(
        1 << 14, 12, np.random.default_rng(0), max_attempts=1
    ),
    # int64 adjacency, 32-bit fixed-point offsets (int64 wide type).
    "powerlaw-2e14": lambda: powerlaw_configuration(
        1 << 14, 2.5, np.random.default_rng(3), min_degree=2
    ),
}

_DYNAMICS = {
    "kind": "compose",
    "schedules": [
        {"kind": "bernoulli-edges", "rate": 0.2, "seed": 3},
        {"kind": "node-crashes", "crash_round": 2, "fraction": 0.1, "seed": 4, "duration": 6},
    ],
}

#: ``(protocol, run_batch options)`` of every pinned case.
CASES = {
    "hybrid-density-0.5": ("hybrid-ppull-visitx", {"agent_density": 0.5}),
    "hybrid-density-2": ("hybrid-ppull-visitx", {"agent_density": 2.0}),
    "hybrid-lazy": ("hybrid-ppull-visitx", {"lazy": True}),
    "hybrid-dynamics": ("hybrid-ppull-visitx", {"dynamics": _DYNAMICS}),
    "hybrid-sparse": ("hybrid-ppull-visitx", {"frontier": "sparse"}),
    "hybrid-dense": ("hybrid-ppull-visitx", {"frontier": "dense"}),
    "visit-exchange-lazy": ("visit-exchange", {"lazy": True}),
    "meet-exchange-lazy": ("meet-exchange", {"lazy": True}),
}

#: :func:`_digest` of each case with seeds 21 to 24 from source 0, computed
#: with per-sampler scratch (every buffer owned by one user).
PINNED = {
    "regular-2e14": {
        "hybrid-density-0.5": "3a3a2488dec2f589",
        "hybrid-density-2": "63f69a701d8fa821",
        "hybrid-lazy": "9aeba7f46fe38baf",
        "hybrid-dynamics": "5d4b3e5016f9098e",
        "hybrid-sparse": "eb1d0bd2f33e48b9",
        "hybrid-dense": "eb1d0bd2f33e48b9",
        "visit-exchange-lazy": "461f0ab7f7a3c165",
        "meet-exchange-lazy": "19f4a3b3c8f86aa4",
    },
    "powerlaw-2e14": {
        "hybrid-density-0.5": "ffad78853a59f156",
        "hybrid-density-2": "c7d2b751b90500a5",
        "hybrid-lazy": "a80719f742ea7d62",
        "hybrid-dynamics": "704604522b317834",
        "hybrid-sparse": "776ec6b231dd2ecf",
        "hybrid-dense": "776ec6b231dd2ecf",
        "visit-exchange-lazy": "4fc659d6f6317acc",
        "meet-exchange-lazy": "dc65e9963f2baf58",
    },
}

SEEDS = [21, 22, 23, 24]


def _digest(batch) -> str:
    """Hash of a batch's per-trial results and per-round histories."""
    record = [
        batch.broadcast_times.tolist(),
        batch.messages_sent.tolist(),
        batch.vertex_histories,
        batch.agent_histories,
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def run_case(graph, case: str):
    protocol, options = CASES[case]
    return run_batch(
        protocol, graph, 0, seeds=SEEDS, max_rounds=2000, record_history=True, **options
    )


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in _GRAPHS.items()}


class TestBitIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    def test_results_match_the_unshared_literals(self, graphs, name, case):
        batch = run_case(graphs[name], case)
        assert batch.completed.all()
        assert _digest(batch) == PINNED[name][case]


class TestSharing:
    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    @pytest.mark.parametrize("density", [0.5, 1.0, 2.0])
    def test_hybrid_halves_share_their_scratch(self, graphs, name, density):
        graph = graphs[name]
        kernel = HybridKernel(agent_density=density)
        kernel.frontier_mode = "dense"
        kernel.initialize(graph, 0, [batch_generator(s) for s in (1, 2, 3)])
        kernel.step(3)
        callee, walk = kernel._callee_sampler, kernel._walk_sampler
        assert np.shares_memory(callee.offsets, walk.offsets)
        assert np.shares_memory(callee.sampled, walk.sampled)
        assert np.shares_memory(kernel._callee_flat, kernel._position_flat)
        if callee.offset_bits == 16:
            assert np.shares_memory(callee._scaled, walk._scaled)
        else:
            # 32-bit per-vertex sampling runs its chain in ``offsets``.
            assert callee._scaled is None
            assert walk._scaled is not None

    def test_a_claim_views_its_role_and_may_not_widen_it(self, graphs):
        kernel = PushPullKernel()
        kernel.initialize(graphs["regular-2e14"], 0, [batch_generator(1)])
        n = kernel.graph.num_vertices
        narrower = kernel._scratch("flat", np.int64, n // 2)
        assert narrower.shape == (1, n // 2)
        assert np.shares_memory(narrower, kernel._callee_flat)
        assert not np.shares_memory(kernel._scratch("flat", bool, n), kernel._callee_flat)
        with pytest.raises(ValueError, match="_arena_width"):
            kernel._scratch("flat", np.int64, n + 1)

    @staticmethod
    def _heap_peak(graph, protocol) -> int:
        seeds = list(range(8))
        run_batch(protocol, graph, 0, seeds=seeds)  # caches built outside the window
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_batch(protocol, graph, 0, seeds=seeds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    def test_hybrid_heap_peak_is_well_below_its_halves(self, graphs, name):
        graph = graphs[name]
        hybrid = self._heap_peak(graph, "hybrid-ppull-visitx")
        halves = self._heap_peak(graph, "push-pull") + self._heap_peak(graph, "visit-exchange")
        assert hybrid <= 0.8 * halves, (hybrid, halves)


class TestWorkingSet:
    def test_traced_rounds_report_the_working_set(self, graphs, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        graph = graphs["regular-2e14"]
        protocols = ("push-pull", "visit-exchange", "hybrid-ppull-visitx")
        for protocol in protocols:
            run_batch(protocol, graph, 0, seeds=[5, 6], max_rounds=3)
        working = {
            event["attrs"]["protocol"]: event["attrs"]["working_set_bytes"]
            for event in read_events(trace_files(str(tmp_path)))
            if event["name"] == "kernel.rounds"
        }
        assert set(working) == set(protocols)
        # At least the informed state and one draw block of every trial.
        assert all(value > 2 * graph.num_vertices for value in working.values())
        assert working["hybrid-ppull-visitx"] < working["push-pull"] + working["visit-exchange"]

    def test_untraced_rounds_compute_nothing(self, graphs, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)

        def fail(self):
            raise AssertionError("working set computed without tracing")

        monkeypatch.setattr(BatchKernel, "working_set_bytes", fail)
        run_batch("hybrid-ppull-visitx", graphs["regular-2e14"], 0, seeds=[5], max_rounds=3)
