"""Tests for single runs: ``repro.simulate`` as a one-trial ``run_batch``."""

from __future__ import annotations

import pytest

from repro import simulate
from repro.core.batch import default_max_rounds, run_batch
from repro.core.observers import InformedCountObserver, Observer, ObserverGroup
from repro.graphs import Graph, GraphError, complete_graph, star


class HookRecorder(Observer):
    """Records every run/round hook in call order."""

    def __init__(self):
        self.calls = []

    def on_run_start(self, graph, source):
        self.calls.append(("start", source))

    def on_round_end(self, round_index, informed_vertices, informed_agents=0):
        self.calls.append(("round", round_index, informed_vertices))

    def on_run_end(self, broadcast_time):
        self.calls.append(("end", broadcast_time))


class TestDefaultMaxRounds:
    def test_scales_with_graph_size(self):
        small = default_max_rounds(star(10))
        large = default_max_rounds(star(1000))
        assert large > small

    def test_has_floor(self):
        assert default_max_rounds(Graph(2, [(0, 1)])) >= 64

    def test_is_the_run_budget(self):
        # A push that cannot finish (budget 0 from a leaf) reports the
        # explicit budget; without one, the default applies.
        graph = star(9)
        capped = simulate("push", graph, 1, seed=0, max_rounds=0)
        assert not capped.completed and capped.rounds_executed == 0
        free = simulate("push", graph, 1, seed=0)
        assert free.completed and free.rounds_executed <= default_max_rounds(graph)


class TestSimulate:
    def test_complete_graph_run_is_well_formed(self):
        result = simulate("push", complete_graph(10), 0, seed=0)
        assert result.completed
        assert result.protocol == "push"
        assert result.num_vertices == 10
        assert result.rounds_executed == result.broadcast_time

    def test_history_recorded(self):
        result = simulate("push", star(4), 0, seed=0)
        history = result.informed_vertex_history
        assert history[0] == 1
        assert history[-1] == 5
        assert len(history) == result.broadcast_time + 1

    def test_history_disabled_in_run_batch(self):
        batch = run_batch("push", star(4), 0, seeds=[0])
        assert batch.to_run_results()[0].informed_vertex_history == []

    def test_round_budget_produces_incomplete_result(self):
        # Push from a star leaf needs at least two rounds.
        result = simulate("push", star(9), 1, seed=0, max_rounds=1)
        assert not result.completed
        assert result.broadcast_time is None
        assert result.rounds_executed == 1
        assert result.informed_vertex_history[0] == 1

    def test_source_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            simulate("push", star(5), 99, seed=0)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(GraphError):
            simulate("push", Graph(4, [(0, 1), (2, 3)]), 0, seed=0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            simulate("push", star(5), 0, seed=0, max_rounds=-1)

    def test_already_complete_at_round_zero(self):
        result = simulate("push", Graph(1, []), 0, seed=0)
        assert result.completed
        assert result.broadcast_time == 0
        assert result.rounds_executed == 0
        assert result.informed_vertex_history == [1]

    def test_observers_receive_hooks_in_order(self):
        recorder = HookRecorder()
        counter = InformedCountObserver()
        result = simulate("push", star(4), 0, seed=0, observers=ObserverGroup([recorder, counter]))
        rounds = result.broadcast_time
        assert recorder.calls[0] == ("start", 0)
        assert recorder.calls[-1] == ("end", rounds)
        round_calls = recorder.calls[1:-1]
        assert [call[1] for call in round_calls] == list(range(rounds + 1))
        assert [call[2] for call in round_calls] == result.informed_vertex_history
        assert counter.vertex_history == result.informed_vertex_history
        assert counter.broadcast_time == rounds

    def test_same_seed_reproducible(self):
        graph = star(30)
        a = simulate("push", graph, 0, seed=42)
        b = simulate("push", graph, 0, seed=42)
        assert a.broadcast_time == b.broadcast_time
        assert a.informed_vertex_history == b.informed_vertex_history

    def test_different_seeds_usually_differ(self):
        graph = star(30)
        times = {simulate("push", graph, 0, seed=s).broadcast_time for s in range(5)}
        assert len(times) > 1
