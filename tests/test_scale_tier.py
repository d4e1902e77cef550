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
    siamese_heavy_binary_tree,
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
        # The coupon-collector push of Figure 1(a)/(b) runs sparse: one or
        # two pushing centres per trial, stepped in blocks of rounds, which
        # pay at every paper size.  For every protocol whose callers stay
        # numerous, the run stays dense at these sizes.  Either way auto is
        # dense bit for bit.
        seeds = trial_seeds(5, "paper-sized", trials=5)
        sparse_push = (star(1024), double_star(1024), star(128), double_star(128))
        for graph in (*sparse_push, hypercube(7), heavy_binary_tree(127)):
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


def _count_blocks(monkeypatch):
    """Record the ``(rows, first round, rounds)`` of every block step, in
    order."""
    blocks = []
    push_block = VertexKernel._push_block

    def counting(self, k):
        push_block(self, k)
        rounds = self._block[0]
        blocks.append((k, self.rounds_stepped - rounds + 1, rounds))

    monkeypatch.setattr(VertexKernel, "_push_block", counting)
    return blocks


def _block_every_round(monkeypatch):
    """Make ``frontier="auto"`` push step in blocks from the first round on,
    whatever the graph's number of non-leaf vertices: each block draws to the
    byte cap or the budget and ends by the block rule alone.  Returns the
    list of block steps."""

    def choose(self, k):
        self._block_rounds, self._block_limit = self._block_span()
        return "block"

    monkeypatch.setattr(vertex_module, "_FEW_HUBS", 1 << 30)
    monkeypatch.setattr(VertexKernel, "_choose_tier", choose)
    return _count_blocks(monkeypatch)


def _block_cases():
    rng = np.random.default_rng(12)
    cases = [
        ("star", star(80), 1),
        ("double_star", double_star(96), 2),
        ("heavy_tree", heavy_binary_tree(63), 0),
        ("siamese_tree", siamese_heavy_binary_tree(63), 0),
        ("hypercube", hypercube(6), 5),
        ("regular", random_regular_graph(64, 6, rng), 3),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


class TestBlockIdentity:
    """A step that advances push by a block of rounds is bit-identical to
    one round per step: ``auto`` equals forced ``"dense"``, histories
    included."""

    @pytest.mark.parametrize("name, graph, source", _block_cases())
    def test_forced_blocks_match_dense(self, name, graph, source, monkeypatch):
        seeds = trial_seeds(6, "blocks", name, trials=5)
        dense = run_batch("push", graph, source, seeds=seeds, record_history=True, frontier="dense")
        blocks = _block_every_round(monkeypatch)
        auto = run_batch("push", graph, source, seeds=seeds, record_history=True)
        assert blocks and auto.frontier_resolved == "sparse"
        assert _batch_fingerprint(auto) == _batch_fingerprint(dense), name
        if name in ("heavy_tree", "siamese_tree", "hypercube", "regular"):
            # The frontier grows in most rounds there: blocks are cut short.
            assert min(rounds for _, _, rounds in blocks) == 1

    @pytest.mark.parametrize(
        "graph, source",
        [(star(300), 1), (double_star(256), 2), (star(200), 0)],
        ids=["star-leaf", "double-star", "star-centre"],
    )
    def test_cost_model_blocks_match_dense(self, graph, source, monkeypatch):
        # Blocks chosen by the cost model, 30 trials: rows retire at their own
        # rounds inside blocks.
        seeds = trial_seeds(8, "model-blocks", trials=30)
        dense = run_batch("push", graph, source, seeds=seeds, record_history=True, frontier="dense")
        blocks = _count_blocks(monkeypatch)
        auto = run_batch("push", graph, source, seeds=seeds, record_history=True)
        assert _batch_fingerprint(auto) == _batch_fingerprint(dense)
        assert max(rounds for _, _, rounds in blocks) > 20
        assert len({rows for rows, _, _ in blocks}) > 1  # rows retired between blocks
        # Some block saw rows retire at two or more different rounds inside it.
        finished = set(dense.broadcast_times.tolist())
        assert any(
            sum(first <= t < first + rounds - 1 for t in finished) >= 2
            for _, first, rounds in blocks
        )

    def test_double_star_block_is_cut_at_the_bridge(self, tmp_path, monkeypatch):
        # From a leaf of the first star: blocks run while the second centre is
        # uninformed in some row, and each ends when a row's bridge is crossed.
        graph = double_star(256)
        seeds = trial_seeds(3, "bridge", trials=4)
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        auto = run_batch("push", graph, 2, seeds=seeds, record_history=True)
        monkeypatch.delenv(TRACE_ENV_VAR)
        blocks = [
            e["attrs"] for e in read_events(trace_files(str(tmp_path)))
            if e["name"] == "kernel.block"
        ]
        assert {"grew", "done"} <= {block["ended"] for block in blocks}
        for block in blocks:
            assert block["protocol"] == "push" and block["rows"] >= 1 and block["rounds"] >= 1
        dense = run_batch("push", graph, 2, seeds=seeds, record_history=True, frontier="dense")
        assert _batch_fingerprint(auto) == _batch_fingerprint(dense)

    @pytest.mark.parametrize("budget", [37, 150, 301])
    def test_budget_inside_a_block(self, budget, monkeypatch):
        graph = star(120)
        seeds = trial_seeds(4, "budget-block", trials=6)
        dense = run_batch(
            "push", graph, 1, seeds=seeds, max_rounds=budget, record_history=True,
            frontier="dense",
        )
        blocks = _count_blocks(monkeypatch)
        auto = run_batch("push", graph, 1, seeds=seeds, max_rounds=budget, record_history=True)
        # The last block runs into the budget from well before it.
        _, first, rounds = blocks[-1]
        assert first + rounds - 1 == budget and rounds > 1
        assert _batch_fingerprint(auto) == _batch_fingerprint(dense)
        assert dense.completion_rate < 1.0
        assert int(auto.rounds_executed.max()) == budget

    def test_forced_tiers_never_block(self, monkeypatch):
        blocks = _count_blocks(monkeypatch)
        for frontier in ("sparse", "dense"):
            run_batch("push", star(300), 1, seeds=[1, 2], frontier=frontier)
        run_batch("push-pull", star(300), 1, seeds=[1, 2])
        run_batch("hybrid-ppull-visitx", star(300), 1, seeds=[1, 2])
        run_batch("push", star(300), 1, seeds=[1, 2], observers=[
            ObserverGroup([InformedCountObserver()]) for _ in range(2)
        ])
        assert blocks == []

    @pytest.mark.parametrize(
        "graph, source", [(star(300), 1), (double_star(256), 2)], ids=["star", "double-star"]
    )
    def test_tracing_does_not_change_block_results(self, graph, source, tmp_path, monkeypatch):
        seeds = trial_seeds(5, "trace-blocks", trials=4)
        quiet = run_batch("push", graph, source, seeds=seeds, record_history=True)
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        traced = run_batch("push", graph, source, seeds=seeds, record_history=True)
        monkeypatch.delenv(TRACE_ENV_VAR)
        assert _batch_fingerprint(traced) == _batch_fingerprint(quiet)
        events = read_events(trace_files(str(tmp_path)))
        blocks = [e["attrs"] for e in events if e["name"] == "kernel.block"]
        assert blocks
        # Each block starts where the rounds before it end.
        budget = [e["attrs"]["budget"] for e in events if e["name"] == "kernel.rounds"][0]
        stride = max(1, budget // 64)
        block_spans = [(b["round"], b["round"] + b["rounds"]) for b in blocks]
        samples = sorted(e["attrs"]["round"] for e in events if e["name"] == "kernel.round")
        last = int(traced.rounds_executed.max())
        for multiple in range(stride, last + 1, stride):
            # A block that runs through a multiple of the stride samples
            # where it ends; any other step samples the multiple itself.
            ends = [hi for lo, hi in block_spans if lo < multiple <= hi]
            assert (ends[0] if ends else multiple) in samples, multiple

    def test_untraced_blocks_trace_nothing(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)

        def fail(*args, **kwargs):
            raise AssertionError("traced without REPRO_TRACE")

        monkeypatch.setattr(vertex_module, "trace_event", fail)
        blocks = _count_blocks(monkeypatch)
        run_batch("push", double_star(256), 2, seeds=[1, 2, 3])
        assert blocks


class TestStarFrontierBound:
    def test_star_push_never_runs_dense_in_its_middle_rounds(self, tmp_path, monkeypatch):
        # Push on star(512) with 5 trials from a leaf: sparse from the
        # opening round, and in blocks once the centre is informed.
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        batch = run_batch("push", star(512), 1, seeds=trial_seeds(0, "bound", trials=5))
        monkeypatch.delenv(TRACE_ENV_VAR)
        events = read_events(trace_files(str(tmp_path)))
        switches = [e["attrs"] for e in events if e["name"] == "kernel.tier"]
        assert [(s["direction"], s["round"]) for s in switches] == [("dense->sparse", 0)]
        assert {e["attrs"]["tier"] for e in events if e["name"] == "kernel.round"} == {"sparse"}
        assert batch.completion_rate == 1.0

    @pytest.mark.parametrize(
        "graph, source", [(star(512), 1), (double_star(512), 2)], ids=["star", "double-star"]
    )
    def test_dense_bound_counts_one_frontier_vertex_per_hub(self, graph, source):
        # A frontier leaf's one neighbor is uninformed, so only the source
        # leaf can be in the frontier without a non-leaf vertex: the dense
        # tier's estimate is at most the non-leaf vertices plus one per row.
        kernel = get_kernel_class("push")()
        kernel.initialize(graph, source, [batch_generator(seed) for seed in range(5)])
        kernel._switch_tier(5, "dense")
        for _ in range(40):
            kernel._begin_round()
            kernel._count_messages(5)
            kernel._settle(5, kernel._exchange(5))
        kernel._choose_tier(5)
        estimate = kernel._sparse_work
        kernel._frontier = None
        kernel._switch_tier(5, "sparse")
        kernel._choose_tier(5)  # the exact frontier
        hubs = int(np.count_nonzero(graph.degrees > 1))
        slack = vertex_module._FRONTIER_COST * 5 * (hubs + 1)
        assert kernel._sparse_work <= estimate <= kernel._sparse_work + slack


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


class TestBlockIdentityProperty:
    @settings(
        max_examples=20,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        case=connected_graphs(),
        base_seed=st.integers(min_value=0, max_value=2**31),
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
    )
    def test_blocks_equal_dense_on_random_graphs(self, case, base_seed, budget, monkeypatch):
        graph, source = case
        seeds = trial_seeds(base_seed, "hyp-blocks", trials=3)
        dense = run_batch(
            "push", graph, source, seeds=seeds, max_rounds=budget,
            record_history=True, frontier="dense",
        )
        with monkeypatch.context() as patch:
            blocks = _block_every_round(patch)
            auto = run_batch(
                "push", graph, source, seeds=seeds, max_rounds=budget, record_history=True
            )
        assert blocks
        assert _batch_fingerprint(auto) == _batch_fingerprint(dense)


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
