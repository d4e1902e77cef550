"""Tests for the multi-rumor extension (repro.extensions.multi_rumor)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import simulate
from repro.core.batch import run_batch
from repro.core.kernels import VisitExchangeKernel, batch_generator
from repro.extensions import MultiRumorVisitExchange, RumorInjection
from repro.graphs import GraphError, complete_graph, double_star, random_regular_graph, star


class TestRumorInjection:
    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            RumorInjection(round_index=-1, source=0)

    def test_label_stored(self):
        injection = RumorInjection(round_index=3, source=5, label="update-7")
        assert injection.label == "update-7"


SINGLE_RUMOR_GRAPHS = {
    "regular": lambda: random_regular_graph(64, 6, np.random.default_rng(5)),
    "double-star": lambda: double_star(40),
}


class TestSingleRumorConsistency:
    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("graph_name", sorted(SINGLE_RUMOR_GRAPHS))
    def test_single_rumor_is_simulate(self, graph_name, lazy):
        # One rumor injected in round 0 is exactly visit-exchange: the same
        # seed gives the same broadcast time, not just the same distribution.
        graph = SINGLE_RUMOR_GRAPHS[graph_name]()
        multi = MultiRumorVisitExchange(lazy=lazy)
        for seed in range(5):
            result = multi.run(graph, [RumorInjection(0, 2)], seed=seed)
            expected = simulate("visit-exchange", graph, source=2, seed=seed, lazy=lazy)
            assert result.broadcast_times == [expected.broadcast_time]
            assert result.num_agents == expected.num_agents


class TestSharedWalk:
    def test_rumors_from_one_source_complete_together(self):
        graph = double_star(40)
        injections = [RumorInjection(0, 3), RumorInjection(0, 3)]
        for seed in range(4):
            result = MultiRumorVisitExchange().run(graph, injections, seed=seed)
            assert result.all_completed
            assert result.completion_rounds[0] == result.completion_rounds[1]

    def test_rumor_rows_of_a_trial_walk_identically(self):
        # Rows sharing a seed hold the same positions every round, whatever
        # their source and injection round.
        graph = random_regular_graph(64, 6, np.random.default_rng(5))
        injections = [(0, 0), (0, 13), (3, 5), (9, 40)]
        kernel = VisitExchangeKernel(injections=injections, lazy=True)
        kernel.initialize(graph, 0, [batch_generator(11) for _ in injections])
        for _ in range(30):
            assert (kernel.positions == kernel.positions[0]).all()
            kernel.step(len(injections))
        assert (kernel.positions == kernel.positions[0]).all()

    def test_rows_before_injection_hold_nothing(self):
        graph = complete_graph(30)
        batch = run_batch(
            "visit-exchange",
            graph,
            seeds=[1, 1],
            injections=[(0, 4), (6, 4)],
            record_history=True,
        )
        late = batch.vertex_histories[1]
        assert late[:6] == [0] * 6 and late[6] >= 1
        assert batch.agent_histories[1][:6] == [0] * 6
        assert batch.broadcast_times[1] > 6

    def test_batch_equals_solo_runs(self):
        graph = double_star(30)
        plans = [
            [RumorInjection(0, 1), RumorInjection(4, 2)],
            [RumorInjection(3, 5)],
            [RumorInjection(0, 0), RumorInjection(2, 7), RumorInjection(9, 11)],
        ]
        seeds = [1, 2, 3]
        multi = MultiRumorVisitExchange()
        batched = multi.run_batch(graph, plans, seeds=seeds)
        solo = [multi.run(graph, plan, seed=seed) for plan, seed in zip(plans, seeds)]
        assert [r.completion_rounds for r in batched] == [r.completion_rounds for r in solo]
        assert [r.rounds_executed for r in batched] == [r.rounds_executed for r in solo]

    def test_generator_seed_rows_share_the_walk(self):
        graph = star(20)
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        first = MultiRumorVisitExchange().run(graph, [RumorInjection(0, 1)] * 2, seed=gen)
        assert gen.bit_generator.state == state
        assert first.completion_rounds[0] == first.completion_rounds[1]


class TestManyRumors:
    def test_all_rumors_complete_on_complete_graph(self):
        graph = complete_graph(40)
        injections = [RumorInjection(round_index=2 * i, source=i) for i in range(8)]
        result = MultiRumorVisitExchange().run(graph, injections, seed=1)
        assert result.all_completed
        assert len(result.broadcast_times) == 8
        assert all(t is not None and t >= 1 for t in result.broadcast_times)

    def test_later_injections_complete_later_in_absolute_time(self):
        graph = complete_graph(30)
        injections = [RumorInjection(0, 0), RumorInjection(20, 1)]
        result = MultiRumorVisitExchange().run(graph, injections, seed=2)
        assert result.all_completed
        assert result.completion_rounds[1] >= 20
        assert result.completion_rounds[1] > result.completion_rounds[0]

    def test_broadcast_time_measured_from_injection(self):
        graph = complete_graph(30)
        injections = [RumorInjection(0, 0), RumorInjection(15, 3)]
        result = MultiRumorVisitExchange().run(graph, injections, seed=3)
        assert result.all_completed
        # Each rumor's latency should be far smaller than the absolute round
        # at which the second rumor completed.
        assert result.broadcast_times[1] == result.completion_rounds[1] - 15
        assert result.broadcast_times[1] < result.completion_rounds[1]

    def test_parallel_rumors_have_similar_latencies(self):
        # The point of the shared agent population: a batch of rumors injected
        # together is delivered in parallel, each within the usual O(log n).
        graph = star(100)
        injections = [RumorInjection(0, source) for source in (1, 5, 9, 13)]
        result = MultiRumorVisitExchange().run(graph, injections, seed=4)
        assert result.all_completed
        times = result.broadcast_times
        assert max(times) < 80
        assert result.mean_broadcast_time() is not None
        assert result.max_broadcast_time() == max(times)

    def test_pipeline_latency_stays_logarithmic(self, regular_512):
        # Ten rumors injected five rounds apart into one shared population:
        # each is still delivered within O(log n) of its injection.
        rng = np.random.default_rng(1)
        injections = [
            RumorInjection(5 * i, int(rng.integers(regular_512.num_vertices))) for i in range(10)
        ]
        result = MultiRumorVisitExchange().run(regular_512, injections, seed=2)
        assert result.all_completed
        assert result.max_broadcast_time() < 10 * math.log2(regular_512.num_vertices)

    def test_statistics_with_incomplete_runs(self):
        graph = double_star(60)
        result = MultiRumorVisitExchange().run(
            graph, [RumorInjection(0, 2)], seed=5, max_rounds=1
        )
        assert not result.all_completed
        assert result.max_broadcast_time() is None
        assert result.broadcast_times == [None]


class TestValidation:
    def test_empty_injections_rejected(self):
        with pytest.raises(ValueError):
            MultiRumorVisitExchange().run(star(5), [], seed=0)

    def test_out_of_range_source_rejected(self):
        with pytest.raises(GraphError):
            MultiRumorVisitExchange().run(star(5), [RumorInjection(0, 99)], seed=0)

    def test_seed_and_injection_lists_must_align(self):
        with pytest.raises(ValueError):
            MultiRumorVisitExchange().run_batch(star(5), [[RumorInjection(0, 1)]], seeds=[0, 1])

    def test_kernel_needs_one_injection_per_seed(self):
        with pytest.raises(ValueError, match="one \\(round, source\\) injection per trial"):
            run_batch("visit-exchange", star(5), seeds=[0, 1], injections=[(0, 1)])

    def test_kernel_rejects_negative_injection_round(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_batch("visit-exchange", star(5), seeds=[0], injections=[(-1, 1)])

    def test_agent_count_override(self):
        graph = star(20)
        result = MultiRumorVisitExchange(num_agents=7).run(
            graph, [RumorInjection(0, 0)], seed=0
        )
        assert result.num_agents == 7
