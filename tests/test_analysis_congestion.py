"""Tests for coupled-run congestion summaries (repro.analysis.congestion)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.congestion import summarize_coupled_runs
from repro.core.coupling import CoupledPushVisitExchange, CoupledRunResult
from repro.graphs import random_regular_graph


def synthetic_run(push_times, visitx_times, counters, push_bt=None, visitx_bt=None):
    push_times = np.asarray(push_times)
    visitx_times = np.asarray(visitx_times)
    counters = np.asarray(counters)
    return CoupledRunResult(
        num_vertices=len(push_times),
        num_agents=len(push_times),
        push_inform_round=push_times,
        visitx_inform_round=visitx_times,
        c_counter_at_inform=counters,
        push_broadcast_time=int(push_bt if push_bt is not None else push_times.max()),
        visitx_broadcast_time=int(
            visitx_bt if visitx_bt is not None else visitx_times.max()
        ),
    )


class TestCoupledRunResultHelpers:
    def test_lemma13_violation_detection(self):
        good = synthetic_run([0, 2, 3], [0, 1, 2], [0, 2, 5])
        assert good.lemma13_holds()
        bad = synthetic_run([0, 6, 3], [0, 1, 2], [0, 2, 5])
        assert not bad.lemma13_holds()
        assert bad.lemma13_violations() == [1]

    def test_ratio_helpers(self):
        run = synthetic_run([0, 4], [0, 2], [0, 6])
        assert run.max_congestion() == 6
        assert run.congestion_ratio() == pytest.approx(3.0)
        assert run.broadcast_time_ratio() == pytest.approx(2.0)


class TestSummarizeCoupledRuns:
    def test_aggregates_means_and_maxima(self):
        runs = [
            synthetic_run([0, 4], [0, 2], [0, 4]),
            synthetic_run([0, 6], [0, 2], [0, 8]),
        ]
        summary = summarize_coupled_runs(runs)
        assert summary.num_runs == 2
        assert summary.lemma13_violation_count == 0
        assert summary.mean_push_time == pytest.approx(5.0)
        assert summary.mean_visitx_time == pytest.approx(2.0)
        assert summary.max_broadcast_ratio == pytest.approx(3.0)
        assert summary.max_congestion_ratio == pytest.approx(4.0)

    def test_violations_counted(self):
        runs = [synthetic_run([0, 9], [0, 1], [0, 3])]
        summary = summarize_coupled_runs(runs)
        assert summary.lemma13_violation_count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_coupled_runs([])

    def test_single_run_summary_fields(self):
        summary = summarize_coupled_runs([synthetic_run([0, 1], [0, 1], [0, 2])])
        assert summary.num_runs == 1
        assert summary.lemma13_violation_count == 0
        assert summary.mean_broadcast_ratio == summary.max_broadcast_ratio

    def test_end_to_end_with_real_coupled_runs(self, rng):
        graph = random_regular_graph(48, 8, rng)
        runs = [
            CoupledPushVisitExchange().run(graph, source=0, seed=seed) for seed in range(3)
        ]
        summary = summarize_coupled_runs(runs)
        assert summary.lemma13_violation_count == 0
        assert summary.mean_broadcast_ratio > 0
