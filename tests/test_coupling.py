"""Tests for the Section-5 coupling machinery (repro.core.coupling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coupling import (
    CoupledPushVisitExchange,
    CoupledRunResult,
    NeighborChoices,
)
from repro.graphs import Graph, GraphError, complete_graph, hypercube, random_regular_graph


class TestNeighborChoices:
    def test_choices_are_neighbors(self, small_regular, rng):
        choices = NeighborChoices(small_regular, rng)
        for vertex in range(0, small_regular.num_vertices, 7):
            for index in range(1, 6):
                choice = choices.choice(vertex, index)
                assert small_regular.has_edge(vertex, choice)

    def test_choices_are_stable_on_repeated_access(self, small_regular, rng):
        choices = NeighborChoices(small_regular, rng)
        first = [choices.choice(3, i) for i in range(1, 10)]
        second = [choices.choice(3, i) for i in range(1, 10)]
        assert first == second

    def test_a_later_choice_first_fixes_the_earlier_ones_in_order(self, small_regular):
        # w_u(i) is the i-th draw for u whichever index is asked for first.
        skipping = NeighborChoices(small_regular, np.random.default_rng(5))
        fourth = skipping.choice(5, 4)
        in_order = NeighborChoices(small_regular, np.random.default_rng(5))
        assert [in_order.choice(5, i) for i in range(1, 5)] == [
            skipping.choice(5, 1), skipping.choice(5, 2), skipping.choice(5, 3), fourth
        ]

    def test_one_based_indexing_enforced(self, small_regular, rng):
        choices = NeighborChoices(small_regular, rng)
        with pytest.raises(ValueError):
            choices.choice(0, 0)


class TestCoupledRun:
    @pytest.fixture
    def coupled_result(self, rng) -> CoupledRunResult:
        graph = random_regular_graph(64, 8, rng)
        return CoupledPushVisitExchange().run(graph, source=0, seed=21)

    def test_both_processes_complete(self, coupled_result):
        assert coupled_result.push_broadcast_time > 0
        assert coupled_result.visitx_broadcast_time > 0

    def test_inform_rounds_cover_all_vertices(self, coupled_result):
        assert np.all(coupled_result.push_inform_round >= 0)
        assert np.all(coupled_result.visitx_inform_round >= 0)

    def test_source_informed_at_round_zero_in_both(self, coupled_result):
        assert coupled_result.push_inform_round[0] == 0
        assert coupled_result.visitx_inform_round[0] == 0
        assert coupled_result.c_counter_at_inform[0] == 0

    def test_broadcast_times_match_max_inform_round(self, coupled_result):
        assert coupled_result.push_broadcast_time == int(
            coupled_result.push_inform_round.max()
        )
        assert coupled_result.visitx_broadcast_time == int(
            coupled_result.visitx_inform_round.max()
        )

    def test_lemma13_invariant_holds(self, coupled_result):
        # tau_u <= C_u(t_u) for every vertex: the exact invariant of Lemma 13.
        assert coupled_result.lemma13_holds()
        assert coupled_result.lemma13_violations() == []

    def test_congestion_dominates_push_time(self, coupled_result):
        # max_u C_u(t_u) >= max_u tau_u = T_push (consequence of Lemma 13).
        assert coupled_result.max_congestion() >= coupled_result.push_broadcast_time

    def test_ratios_are_positive_and_finite(self, coupled_result):
        assert 0 < coupled_result.broadcast_time_ratio() < float("inf")
        assert 0 < coupled_result.congestion_ratio() < float("inf")

    def test_lemma13_holds_on_multiple_graph_families(self, rng):
        graphs = [
            hypercube(6),
            complete_graph(48),
            random_regular_graph(60, 10, rng),
        ]
        for graph in graphs:
            result = CoupledPushVisitExchange().run(graph, source=1, seed=5)
            assert result.lemma13_holds(), f"Lemma 13 violated on {graph.name}"

    def test_one_agent_per_vertex_variant(self, rng):
        graph = random_regular_graph(48, 8, rng)
        result = CoupledPushVisitExchange(one_agent_per_vertex=True).run(
            graph, source=0, seed=9
        )
        assert result.num_agents == 48
        assert result.lemma13_holds()

    def test_agent_density_respected(self, rng):
        graph = random_regular_graph(40, 8, rng)
        result = CoupledPushVisitExchange(agent_density=2.0).run(graph, source=0, seed=9)
        assert result.num_agents == 80

    def test_disconnected_graph_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            CoupledPushVisitExchange().run(graph, source=0, seed=1)

    def test_source_out_of_range_rejected(self, small_complete):
        with pytest.raises(GraphError):
            CoupledPushVisitExchange().run(small_complete, source=99, seed=1)

    def test_reproducible_with_same_seed(self, rng):
        graph = random_regular_graph(40, 8, np.random.default_rng(2))
        a = CoupledPushVisitExchange().run(graph, source=0, seed=33)
        b = CoupledPushVisitExchange().run(graph, source=0, seed=33)
        assert a.push_broadcast_time == b.push_broadcast_time
        assert a.visitx_broadcast_time == b.visitx_broadcast_time
        assert np.array_equal(a.c_counter_at_inform, b.c_counter_at_inform)
