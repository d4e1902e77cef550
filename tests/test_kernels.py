"""Tests for the kernel layer (repro.core.kernels).

The vectorized kernels are the single source of truth for every protocol.
This module covers what they add on top of the driver contracts of
``test_batch.py`` (statistical agreement with an independent implementation
lives in ``test_oracle.py``):

* the **pull and hybrid kernels** — structural sanity and per-trial seed
  determinism, mirroring ``test_batch.py``;
* **registry completeness** — the registry covers the six protocol names;
* **batched instrumentation** — per-round histories and per-trial observer
  groups (informed counts, informing-edge reporting);
* **single runs** — ``repro.simulate`` drives every kernel as a batch of one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import simulate
from repro.core.batch import run_batch, trial_seeds
from repro.core.kernels import KERNEL_REGISTRY, get_kernel_class
from repro.core.observers import EdgeUsageObserver, InformedCountObserver, ObserverGroup
from repro.experiments.config import GraphCase
from repro.graphs import complete_graph, double_star, random_regular_graph, star


@pytest.fixture(scope="module")
def regular_case():
    graph = random_regular_graph(64, 6, np.random.default_rng(5))
    return GraphCase(graph=graph, source=0, size_parameter=64)


@pytest.fixture(scope="module")
def double_star_case():
    return GraphCase(graph=double_star(80), source=2, size_parameter=80)


class TestRegistryCompleteness:
    def test_kernels_cover_every_protocol(self):
        assert set(KERNEL_REGISTRY) == {
            "push",
            "pull",
            "push-pull",
            "visit-exchange",
            "meet-exchange",
            "hybrid-ppull-visitx",
        }

    def test_get_kernel_class_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            get_kernel_class("gossip-9000")


class TestNewKernelsStructure:
    def test_pull_star_from_center_takes_one_round(self):
        # Structural sanity for the pull kernel: every leaf pulls from its
        # only neighbor, the informed center.
        result = run_batch("pull", star(40), 0, seeds=range(6))
        assert result.broadcast_times.tolist() == [1] * 6

    def test_hybrid_messages_count_push_pull_half(self):
        result = run_batch("hybrid-ppull-visitx", star(20), 0, seeds=range(4))
        n = star(20).num_vertices
        expected = result.rounds_executed * n
        assert result.messages_sent.tolist() == expected.tolist()


class TestNewKernelsSeedDeterminism:
    @pytest.mark.parametrize("protocol", ["pull", "hybrid-ppull-visitx"])
    def test_trial_result_independent_of_batch_composition(self, protocol, regular_case):
        seeds = trial_seeds(7, "kernel-independence", trials=10)
        full = run_batch(protocol, regular_case.graph, 0, seeds=seeds)
        front = run_batch(protocol, regular_case.graph, 0, seeds=seeds[:4])
        back = run_batch(protocol, regular_case.graph, 0, seeds=seeds[4:])
        combined = front.broadcast_times.tolist() + back.broadcast_times.tolist()
        assert full.broadcast_times.tolist() == combined

    @pytest.mark.parametrize("protocol", ["pull", "hybrid-ppull-visitx"])
    def test_rerun_reproduces_per_trial_times(self, protocol, regular_case):
        seeds = trial_seeds(3, "kernel-determinism", trials=8)
        first = run_batch(protocol, regular_case.graph, 0, seeds=seeds)
        second = run_batch(protocol, regular_case.graph, 0, seeds=seeds)
        assert first.broadcast_times.tolist() == second.broadcast_times.tolist()


class TestBatchedHistories:
    @pytest.mark.parametrize("protocol", sorted(KERNEL_REGISTRY))
    def test_histories_are_well_formed(self, protocol, regular_case):
        result = run_batch(
            protocol, regular_case.graph, 0, seeds=range(5), record_history=True
        )
        assert result.vertex_histories is not None
        for t in range(result.num_trials):
            vertex_history = result.vertex_histories[t]
            agent_history = result.agent_histories[t]
            # Round 0 included; one entry per executed round after that.
            assert len(vertex_history) == result.rounds_executed[t] + 1
            assert len(agent_history) == len(vertex_history)
            assert all(b >= a for a, b in zip(vertex_history, vertex_history[1:]))
            assert all(b >= a for a, b in zip(agent_history, agent_history[1:]))

    def test_histories_flow_into_run_results(self, regular_case):
        result = run_batch(
            "visit-exchange", regular_case.graph, 0, seeds=range(3), record_history=True
        )
        for run in result.to_run_results():
            assert run.informed_vertex_history[0] == 1
            assert run.informed_vertex_history[-1] == regular_case.graph.num_vertices
            assert run.informed_agent_history[-1] == result.num_agents

    def test_histories_absent_by_default(self, regular_case):
        result = run_batch("push", regular_case.graph, 0, seeds=range(3))
        assert result.vertex_histories is None
        assert result.to_run_results()[0].informed_vertex_history == []


class TestBatchedObservers:
    def test_push_informing_edges_per_trial(self):
        # Exactly n - 1 informing transmissions per trial (each vertex is
        # informed exactly once, except the source), reported on graph edges.
        graph = double_star(20)
        observers = [ObserverGroup([EdgeUsageObserver()]) for _ in range(4)]
        run_batch("push", graph, 0, seeds=range(4), observers=observers)
        for group in observers:
            observer = next(iter(group))
            assert observer.total_uses() == graph.num_vertices - 1
            for u, v in observer.counts:
                assert graph.has_edge(u, v)

    def test_informed_count_observer_hooks(self):
        graph = complete_graph(16)
        observers = [ObserverGroup([InformedCountObserver()]) for _ in range(3)]
        result = run_batch("push-pull", graph, 0, seeds=range(3), observers=observers)
        for t, group in enumerate(observers):
            observer = next(iter(group))
            assert observer.vertex_history[0] == 1
            assert observer.vertex_history[-1] == graph.num_vertices
            assert len(observer.vertex_history) == result.broadcast_times[t] + 1
            assert observer.broadcast_time == result.broadcast_times[t]

    def test_track_all_exchanges_reports_every_call(self):
        graph = complete_graph(12)
        observers = [ObserverGroup([EdgeUsageObserver()])]
        result = run_batch(
            "push-pull",
            graph,
            0,
            seeds=[3],
            observers=observers,
            track_all_exchanges=True,
        )
        observer = next(iter(observers[0]))
        # Every vertex calls once per round.
        assert observer.total_uses() == graph.num_vertices * int(result.broadcast_times[0])

    def test_observer_count_must_match_trials(self):
        with pytest.raises(ValueError, match="one observer group per trial"):
            run_batch("push", star(10), 0, seeds=[1, 2], observers=[ObserverGroup()])

    def test_observers_do_not_change_trial_results(self, regular_case):
        seeds = list(range(6))
        plain = run_batch("push", regular_case.graph, 0, seeds=seeds)
        observed = run_batch(
            "push",
            regular_case.graph,
            0,
            seeds=seeds,
            observers=[ObserverGroup([EdgeUsageObserver()]) for _ in seeds],
        )
        assert plain.broadcast_times.tolist() == observed.broadcast_times.tolist()


class TestSingleRuns:
    """``repro.simulate`` drives every kernel as a one-trial batch."""

    @pytest.mark.parametrize("protocol", sorted(KERNEL_REGISTRY))
    def test_simulate_every_protocol(self, protocol):
        graph = double_star(40)
        result = simulate(protocol, graph, source=2, seed=11)
        assert result.completed
        assert result.protocol == protocol
        assert result.informed_vertex_history[0] >= 1

    def test_pull_edge_reporting_single_run(self):
        graph = complete_graph(12)
        observer = EdgeUsageObserver()
        simulate("pull", graph, 0, seed=4, observers=ObserverGroup([observer]))
        # Pull informs each non-source vertex exactly once.
        assert observer.total_uses() == graph.num_vertices - 1
        for u, v in observer.counts:
            assert graph.has_edge(u, v)
