"""Tests for the million-node kernel tier (sparse frontiers).

The scaling tier's hard contract: the **sparse-frontier representation** is
*bit-identical* to the dense one — same draw streams, same fixed-point
arithmetic, same results down to the last per-round history entry — for all
six protocol kernels, on skewed and regular families alike, with the dense
fallback forced whenever dynamics or observers are attached.

Environment-knob behaviour (``REPRO_FRONTIER``, ``REPRO_SPARSE_MIN_N``;
catalogued in :mod:`repro.experiments.config`) is tested through
``monkeypatch`` so the suite never leaks state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.batch import run_batch, trial_seeds
from repro.core.kernels import get_kernel_class, sparse_threshold
from repro.core.kernels.base import SPARSE_MIN_VERTICES, batch_generator
from repro.core.kernels.packed import PackedBits, popcount
from repro.core.observers import InformedCountObserver, ObserverGroup
from repro.graphs import (
    Graph,
    double_star,
    heavy_binary_tree,
    hypercube,
    random_regular_graph,
    star,
)

ALL_PROTOCOLS = (
    "push",
    "pull",
    "push-pull",
    "visit-exchange",
    "meet-exchange",
    "hybrid-ppull-visitx",
)


def _family_cases():
    rng = np.random.default_rng(11)
    return [
        ("star", star(60), 0),
        ("double_star", double_star(64), 1),
        ("heavy_tree", heavy_binary_tree(63), 0),
        ("regular", random_regular_graph(64, 6, rng), 3),
        ("hypercube", hypercube(6), 5),
    ]


def _batch_fingerprint(batch):
    """Everything a batch result asserts bit-identity over."""
    return (
        batch.broadcast_times.tolist(),
        batch.completed.tolist(),
        batch.rounds_executed.tolist(),
        batch.messages_sent.tolist(),
        batch.vertex_histories,
        batch.agent_histories,
    )


class TestSparseBitIdentity:
    """frontier="sparse" must reproduce frontier="dense" bit for bit."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_identical_across_families(self, protocol):
        seeds = trial_seeds(9, "sparse-identity", protocol, trials=6)
        # Visit-exchange has no sparse tier (its work is agent-proportional
        # already); a forced "sparse" records the dense resolution there.
        expected = "dense" if protocol == "visit-exchange" else "sparse"
        for name, graph, source in _family_cases():
            dense = run_batch(
                protocol, graph, source, seeds=seeds,
                record_history=True, frontier="dense",
            )
            sparse = run_batch(
                protocol, graph, source, seeds=seeds,
                record_history=True, frontier="sparse",
            )
            assert sparse.frontier_resolved == expected
            assert dense.frontier_resolved == "dense"
            assert _batch_fingerprint(dense) == _batch_fingerprint(sparse), (
                f"{protocol} on {name}: sparse diverged from dense"
            )

    def test_identity_survives_budget_truncation(self):
        graph = star(80)
        seeds = trial_seeds(2, "budget", trials=4)
        dense = run_batch("push", graph, seeds=seeds, max_rounds=30, frontier="dense")
        sparse = run_batch("push", graph, seeds=seeds, max_rounds=30, frontier="sparse")
        assert _batch_fingerprint(dense) == _batch_fingerprint(sparse)
        assert dense.completion_rate < 1.0  # the budget actually truncated

    def test_auto_threshold_engages_sparse(self, monkeypatch):
        graph = double_star(64)
        seeds = trial_seeds(5, "auto", trials=3)
        monkeypatch.setenv("REPRO_SPARSE_MIN_N", "32")
        assert sparse_threshold() == 32
        engaged = run_batch("push", graph, seeds=seeds)
        assert engaged.frontier_resolved == "sparse"
        monkeypatch.setenv("REPRO_SPARSE_MIN_N", "1000000")
        assert run_batch("push", graph, seeds=seeds).frontier_resolved == "dense"
        monkeypatch.delenv("REPRO_SPARSE_MIN_N")
        assert sparse_threshold() == SPARSE_MIN_VERTICES

    def test_frontier_env_overrides_auto_but_not_explicit(self, monkeypatch):
        graph = double_star(64)
        seeds = trial_seeds(5, "env", trials=3)
        monkeypatch.setenv("REPRO_FRONTIER", "sparse")
        assert run_batch("push", graph, seeds=seeds).frontier_resolved == "sparse"
        # An explicit driver request beats the environment.
        assert (
            run_batch("push", graph, seeds=seeds, frontier="dense").frontier_resolved
            == "dense"
        )

    def test_dynamics_forces_dense_fallback(self):
        graph = double_star(64)
        seeds = trial_seeds(5, "dyn", trials=3)
        batch = run_batch(
            "push", graph, seeds=seeds, frontier="sparse",
            dynamics={"kind": "bernoulli-edges", "rate": 0.1, "seed": 3},
        )
        assert batch.frontier_resolved == "dense"

    def test_observers_force_dense_fallback(self):
        graph = double_star(64)
        seeds = trial_seeds(5, "obs", trials=3)
        observers = [ObserverGroup([InformedCountObserver()]) for _ in seeds]
        batch = run_batch(
            "push", graph, seeds=seeds, frontier="sparse", observers=observers
        )
        assert batch.frontier_resolved == "dense"

    def test_rejects_unknown_frontier_mode(self):
        with pytest.raises(ValueError, match="frontier"):
            run_batch("push", star(10), seeds=[1], frontier="moist")


# Hypothesis graphs: a random spanning tree plus extra random edges, so the
# instance is connected but otherwise unstructured — degrees are skewed,
# which is exactly the regime where a sparse/dense divergence would show.
@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    parents = [int(rng.integers(v)) for v in range(1, n)]
    edges = {(parent, child) for child, parent in enumerate(parents, start=1)}
    for _ in range(int(rng.integers(0, n))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    return Graph(n, sorted(edges), name=f"hyp(n={n})"), source


class TestSparseIdentityProperty:
    @settings(
        max_examples=20,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        case=connected_graphs(),
        protocol=st.sampled_from(ALL_PROTOCOLS),
        base_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_sparse_equals_dense_on_random_graphs(self, case, protocol, base_seed):
        graph, source = case
        seeds = trial_seeds(base_seed, "hyp", trials=3)
        dense = run_batch(
            protocol, graph, source, seeds=seeds,
            record_history=True, frontier="dense",
        )
        sparse = run_batch(
            protocol, graph, source, seeds=seeds,
            record_history=True, frontier="sparse",
        )
        assert _batch_fingerprint(dense) == _batch_fingerprint(sparse)


class TestPackedBits:
    def test_roundtrip_on_non_word_multiple(self):
        bits = PackedBits(2, 70)  # 70 is deliberately not a multiple of 64
        ids = np.array([0, 63, 64, 69, 69], dtype=np.int64)  # duplicates fine
        bits.set_row(0, ids)
        assert bits.count_row(0) == 4
        assert bits.count_row(1) == 0
        assert bits.counts().tolist() == [4, 0]
        mask = bits.test_row(0, np.arange(70))
        assert sorted(np.flatnonzero(mask).tolist()) == [0, 63, 64, 69]
        row = bits.to_bool_row(0)
        assert row.shape == (70,)
        assert np.array_equal(row, mask)

    def test_rows_are_independent(self):
        bits = PackedBits(3, 130)
        bits.set_row(1, np.array([129]))
        assert bits.counts().tolist() == [0, 1, 0]
        assert bool(bits.test_row(1, np.array([129]))[0])
        assert not bits.test_row(0, np.array([129]))[0]

    def test_popcount_matches_python(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        expected = [bin(int(w)).count("1") for w in words]
        assert popcount(words).astype(int).tolist() == expected


class TestRowCompaction:
    def test_row_of_tracks_swaps(self):
        graph = double_star(32)
        gens = [batch_generator(seed) for seed in range(6)]
        kernel = get_kernel_class("push")()
        kernel.initialize(graph, 0, gens)
        rng = np.random.default_rng(4)
        for _ in range(20):
            i, j = int(rng.integers(6)), int(rng.integers(6))
            kernel.swap_rows(i, j)
            for trial in range(6):
                # The inverse permutation must agree with a linear scan.
                scan = int(np.flatnonzero(kernel.trial_ids == trial)[0])
                assert kernel._row_of(trial) == scan
