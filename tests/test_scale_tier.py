"""Tests for the million-node kernel tier (sparse frontiers).

The scaling tier's hard contract: the **sparse-frontier representation** is
*bit-identical* to the dense one — same draw streams, same fixed-point
arithmetic, same results down to the last per-round history entry — for all
six protocol kernels, on skewed and regular families alike, with the dense
fallback forced whenever dynamics or observers are attached.  Under
``frontier="auto"`` the call protocols switch tiers between rounds, so the
contract also covers runs that switch in every round.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.batch import run_batch, trial_seeds
from repro.core.kernels import get_kernel_class
from repro.core.kernels import vertex as vertex_module
from repro.core.kernels.base import batch_generator
from repro.core.kernels.vertex import VertexKernel
from repro.core.observers import InformedCountObserver, ObserverGroup
from repro.graphs import (
    Graph,
    double_star,
    heavy_binary_tree,
    hypercube,
    random_regular_graph,
    star,
)
from repro.telemetry import TRACE_ENV_VAR, read_events, trace_files

ALL_PROTOCOLS = (
    "push",
    "pull",
    "push-pull",
    "visit-exchange",
    "meet-exchange",
    "hybrid-ppull-visitx",
)

#: The protocols whose vertices call: the ones that switch tiers per round.
CALL_PROTOCOLS = ("push", "pull", "push-pull", "hybrid-ppull-visitx")


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
        # The agent protocols have no sparse tier (their work is
        # agent-proportional already); a forced "sparse" records the dense
        # resolution there.
        expected = "dense" if protocol in ("visit-exchange", "meet-exchange") else "sparse"
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

    # Budgets past some trials' broadcast times, so rows retire while the
    # index lists of the rows still running are being kept up.
    @pytest.mark.parametrize(
        "protocol, graph, budget",
        [
            pytest.param("push", star(80), 30, id="push"),
            pytest.param("pull", double_star(80), 20, id="pull"),
            pytest.param("push-pull", heavy_binary_tree(127), 12, id="push-pull"),
            pytest.param("hybrid-ppull-visitx", heavy_binary_tree(127), 10, id="hybrid"),
        ],
    )
    def test_identity_survives_budget_truncation(self, protocol, graph, budget):
        seeds = trial_seeds(2, "budget", trials=4)
        dense = run_batch(protocol, graph, seeds=seeds, max_rounds=budget, frontier="dense")
        sparse = run_batch(protocol, graph, seeds=seeds, max_rounds=budget, frontier="sparse")
        assert sparse.frontier_resolved == "sparse"
        assert _batch_fingerprint(dense) == _batch_fingerprint(sparse)
        assert dense.completion_rate < 1.0  # the budget actually truncated

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_paper_sized_tier_decisions(self, protocol):
        # The coupon-collector push of Figure 1(a)/(b) runs sparse from the
        # opening round: one or two pushing centres per trial.  Below the
        # size where a sparse row's fixed cost and draw refill outweigh the
        # entry share of a dense row, and for every protocol whose callers
        # stay numerous, the run stays dense.  Either way auto is dense bit
        # for bit.
        seeds = trial_seeds(5, "paper-sized", trials=5)
        sparse_push = (star(1024), double_star(1024))
        for graph in (*sparse_push, star(128), double_star(128), hypercube(7), heavy_binary_tree(127)):
            auto = run_batch(protocol, graph, seeds=seeds, max_rounds=3000, record_history=True)
            expected = "sparse" if protocol == "push" and graph in sparse_push else "dense"
            assert auto.frontier_resolved == expected, graph.name
            dense = run_batch(
                protocol, graph, seeds=seeds, max_rounds=3000, record_history=True,
                frontier="dense",
            )
            assert _batch_fingerprint(auto) == _batch_fingerprint(dense), graph.name

    @pytest.mark.parametrize("graph", [double_star(64), heavy_binary_tree(63)], ids=str)
    def test_traced_sparse_rounds_report_the_frontier(self, graph, tmp_path, monkeypatch):
        # Every round of a 64-round budget is sampled; each sparse sample's
        # ``frontier`` must be the number of informed vertices with an
        # uninformed neighbor over the running rows, counted from scratch.
        # On the tree, rows retire while the others keep running.
        expected = {}
        step = VertexKernel.step

        def counting_step(kernel, k):
            step(kernel, k)
            frontier = 0
            for row in kernel.vertex_informed[:k]:
                for v in np.flatnonzero(row).tolist():
                    frontier += not row[graph.neighbors(v)].all()
            expected[kernel._round_count] = (k, frontier)

        monkeypatch.setattr(VertexKernel, "step", counting_step)
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        run_batch("push", graph, 2, seeds=trial_seeds(3, "frontier", trials=4),
                  max_rounds=64, frontier="sparse")
        monkeypatch.delenv(TRACE_ENV_VAR)
        samples = [
            e["attrs"] for e in read_events(trace_files(str(tmp_path)))
            if e["name"] == "kernel.round"
        ]
        assert samples and all(sample["tier"] == "sparse" for sample in samples)
        for sample in samples:
            assert (sample["active"], sample["frontier"]) == expected[sample["round"]], sample
        assert len({sample["active"] for sample in samples}) > 1 or graph.num_vertices == 64

    def test_expander_push_visits_both_tiers(self, tmp_path, monkeypatch):
        # Theorem 1's regime at 2^16: a thin start, a hot phase in which
        # nearly every vertex calls, and a thin tail.
        graph = random_regular_graph(
            1 << 16, 12, np.random.default_rng(0), max_attempts=1
        )
        seeds = trial_seeds(5, "expander", trials=2)
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        # A 64-round budget samples every round into ``kernel.round`` events.
        auto = run_batch("push", graph, seeds=seeds, max_rounds=64, record_history=True)
        monkeypatch.delenv(TRACE_ENV_VAR)
        assert auto.completion_rate == 1.0
        events = read_events(trace_files(str(tmp_path)))
        switches = [e["attrs"] for e in events if e["name"] == "kernel.tier"]
        assert [s["direction"] for s in switches] == [
            "dense->sparse",  # the opening round, from the source alone
            "sparse->dense",  # the hot phase
            "dense->sparse",  # the tail
        ]
        assert switches[0]["round"] == 0
        for switch in switches:
            assert switch["protocol"] == "push" and switch["rows"] >= 1
            assert switch["dense_work"] == switch["rows"] * graph.num_vertices
        assert switches[1]["sparse_work"] > switches[1]["dense_work"]
        assert switches[2]["sparse_work"] < switches[2]["dense_work"]
        tiers = {e["attrs"]["tier"] for e in events if e["name"] == "kernel.round"}
        assert tiers == {"sparse", "dense"}
        assert auto.frontier_resolved == "sparse"
        dense = run_batch(
            "push", graph, seeds=seeds, max_rounds=64, record_history=True, frontier="dense"
        )
        assert _batch_fingerprint(auto) == _batch_fingerprint(dense)

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


def _flip_every_round(monkeypatch):
    """Make ``frontier="auto"`` switch tiers before every round, whatever n.

    The rebuild into the sparse tier and the free switch back then both run
    on every round, on graphs small enough to compare against dense quickly.
    Returns the list that records the row count of every choice, in order.
    """
    switches = []

    def flip(self, k):
        switches.append(k)
        return "dense" if self.tier == "sparse" else "sparse"

    monkeypatch.setattr(vertex_module, "_SPARSE_ROW_COST", 0)
    monkeypatch.setattr(VertexKernel, "_choose_tier", flip)
    return switches


class TestTierSwitchIdentity:
    """A tier switch between any two rounds leaves every result bit-identical."""

    @pytest.mark.parametrize("protocol", CALL_PROTOCOLS)
    def test_switching_every_round_matches_dense(self, protocol, monkeypatch):
        seeds = trial_seeds(9, "flip", protocol, trials=5)
        dense = {
            name: run_batch(
                protocol, graph, source, seeds=seeds,
                record_history=True, frontier="dense",
            )
            for name, graph, source in _family_cases()
        }
        switches = _flip_every_round(monkeypatch)
        for name, graph, source in _family_cases():
            del switches[:]
            flipping = run_batch(protocol, graph, source, seeds=seeds, record_history=True)
            assert flipping.frontier_resolved == "sparse"
            # One choice at set-up, then one per round.
            assert len(switches) == 1 + int(flipping.rounds_executed.max())
            assert _batch_fingerprint(flipping) == _batch_fingerprint(dense[name]), (
                f"{protocol} on {name}: switching tiers diverged from dense"
            )

    # Budgets past some trials' broadcast times: rows retire while the
    # others keep switching, and the rest are truncated mid-run.
    @pytest.mark.parametrize(
        "protocol, graph, budget",
        [
            pytest.param("push", star(80), 360, id="push"),
            pytest.param("pull", double_star(80), 20, id="pull"),
            pytest.param("push-pull", heavy_binary_tree(127), 12, id="push-pull"),
            pytest.param("hybrid-ppull-visitx", heavy_binary_tree(127), 12, id="hybrid"),
        ],
    )
    def test_switching_survives_budget_truncation(self, protocol, graph, budget, monkeypatch):
        seeds = trial_seeds(2, "budget", trials=6)
        dense = run_batch(
            protocol, graph, seeds=seeds, max_rounds=budget,
            record_history=True, frontier="dense",
        )
        switches = _flip_every_round(monkeypatch)
        flipping = run_batch(protocol, graph, seeds=seeds, max_rounds=budget, record_history=True)
        assert _batch_fingerprint(flipping) == _batch_fingerprint(dense)
        assert dense.completion_rate < 1.0  # the budget actually truncated
        assert min(switches) < max(switches)  # rows retired while switching

    @pytest.mark.parametrize("protocol", CALL_PROTOCOLS)
    def test_tracing_does_not_change_results(self, protocol, tmp_path, monkeypatch):
        graph = heavy_binary_tree(127)
        seeds = trial_seeds(4, "trace", trials=3)
        _flip_every_round(monkeypatch)
        quiet = run_batch(protocol, graph, seeds=seeds, record_history=True)
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        traced = run_batch(protocol, graph, seeds=seeds, record_history=True)
        monkeypatch.delenv(TRACE_ENV_VAR)
        assert _batch_fingerprint(traced) == _batch_fingerprint(quiet)
        events = read_events(trace_files(str(tmp_path)))
        switches = [e for e in events if e["name"] == "kernel.tier"]
        assert len(switches) == 1 + int(traced.rounds_executed.max())


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
