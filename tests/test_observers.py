"""Tests for observers (repro.core.observers)."""

from __future__ import annotations

from repro.core.observers import (
    EdgeUsageObserver,
    InformedCountObserver,
    Observer,
    ObserverGroup,
)
from repro.graphs import star


class RecordingObserver(Observer):
    """Observer that records every hook call for assertions."""

    def __init__(self):
        self.events = []

    def on_run_start(self, graph, source):
        self.events.append(("start", source))

    def on_round_end(self, round_index, informed_vertices, informed_agents):
        self.events.append(("round", round_index, informed_vertices, informed_agents))

    def on_edge_used(self, u, v):
        self.events.append(("edge", u, v))

    def on_run_end(self, broadcast_time):
        self.events.append(("end", broadcast_time))


class TestObserverGroup:
    def test_forwards_all_hooks(self):
        recorders = [RecordingObserver(), RecordingObserver()]
        group = ObserverGroup(recorders)
        group.on_run_start(None, 3)
        group.on_round_end(1, 5, 2)
        group.on_edge_used(0, 4)
        group.on_run_end(9)
        for recorder in recorders:
            assert recorder.events == [
                ("start", 3),
                ("round", 1, 5, 2),
                ("edge", 0, 4),
                ("end", 9),
            ]

    def test_add_and_len(self):
        group = ObserverGroup()
        assert len(group) == 0
        group.add(RecordingObserver())
        assert len(group) == 1
        assert list(iter(group))

    def test_base_observer_hooks_are_noops(self):
        observer = Observer()
        observer.on_run_start(None, 0)
        observer.on_round_end(0, 1, 0)
        observer.on_edge_used(0, 1)
        observer.on_run_end(None)


class TestInformedCountObserver:
    def test_histories_recorded(self):
        observer = InformedCountObserver()
        observer.on_run_start(None, 0)
        for round_index, count in enumerate([1, 3, 7, 10]):
            observer.on_round_end(round_index, count, count // 2)
        observer.on_run_end(3)
        assert observer.vertex_history == [1, 3, 7, 10]
        assert observer.agent_history == [0, 1, 3, 5]
        assert observer.broadcast_time == 3

    def test_reset_on_new_run(self):
        observer = InformedCountObserver()
        observer.on_round_end(0, 5, 0)
        observer.on_run_start(None, 0)
        assert observer.vertex_history == []


class TestEdgeUsageObserver:
    def test_counts_are_canonicalized(self):
        observer = EdgeUsageObserver()
        observer.on_run_start(None, 0)
        observer.on_edge_used(3, 1)
        observer.on_edge_used(1, 3)
        observer.on_edge_used(0, 2)
        assert observer.counts == {(1, 3): 2, (0, 2): 1}
        assert observer.total_uses() == 3

    def test_usage_array_aligned_with_graph_edges(self):
        graph = star(4)
        observer = EdgeUsageObserver()
        observer.on_edge_used(0, 2)
        observer.on_edge_used(2, 0)
        usage = observer.usage_array(graph)
        edges = list(graph.edges())
        assert usage[edges.index((0, 2))] == 2
        assert usage.sum() == 2

    def test_reset_on_run_start(self):
        observer = EdgeUsageObserver()
        observer.on_edge_used(0, 1)
        observer.on_run_start(None, 0)
        assert observer.total_uses() == 0

