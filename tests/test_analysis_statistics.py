"""Tests for trial statistics (repro.analysis.statistics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.statistics import bootstrap_ci, bootstrap_resamples, summarize, summarize_trials
from repro.core.results import RunResult, TrialSet


def make_trialset(times, incomplete=0):
    results = []
    for t in times:
        results.append(
            RunResult(
                protocol="push",
                graph_name="toy",
                num_vertices=10,
                num_edges=9,
                source=0,
                broadcast_time=t,
                rounds_executed=t,
                completed=True,
            )
        )
    for _ in range(incomplete):
        results.append(
            RunResult(
                protocol="push",
                graph_name="toy",
                num_vertices=10,
                num_edges=9,
                source=0,
                broadcast_time=None,
                rounds_executed=100,
                completed=False,
            )
        )
    return TrialSet.from_results(results)


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([2, 4, 6, 8])
        assert summary.count == 4
        assert summary.mean == pytest.approx(5.0)
        assert summary.median == pytest.approx(5.0)
        assert summary.minimum == 2
        assert summary.maximum == 8
        assert summary.q25 <= summary.median <= summary.q75

    def test_single_value(self):
        summary = summarize([7.0])
        assert summary.mean == 7.0
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_confidence_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(50, 5, size=200)
        summary = summarize(data)
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_ci_narrows_with_sample_size(self):
        rng = np.random.default_rng(1)
        small = summarize(rng.normal(0, 1, size=20))
        large = summarize(rng.normal(0, 1, size=2000))
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_small_sample_fields(self):
        summary = summarize([1, 2, 3])
        assert (summary.count, summary.mean, summary.median) == (3, 2.0, 2.0)
        assert (summary.minimum, summary.maximum) == (1.0, 3.0)
        assert summary.ci_low <= summary.mean <= summary.ci_high


class TestBootstrapCi:
    def test_deterministic_given_seed(self):
        data = [1, 5, 3, 8, 2]
        assert bootstrap_ci(data, seed=4) == bootstrap_ci(data, seed=4)

    def test_resamples_match_a_direct_draw(self):
        # The index matrix is drawn once per (size, resamples, seed) and
        # reused; every call must still equal a fresh draw.
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        indices = np.random.default_rng(7).integers(0, 5, size=(300, 5))
        for _ in range(2):
            drawn = bootstrap_resamples(values, 300, seed=7, reduce=np.min)
            assert np.array_equal(drawn, values[indices].min(axis=1))

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1, 2, 3], confidence=1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_interval_ordering(self):
        low, high = bootstrap_ci([1, 2, 3, 4, 5, 6])
        assert low <= high


class TestSummarizeTrials:
    def test_uses_completed_runs_only(self):
        trials = make_trialset([10, 20, 30], incomplete=2)
        summary = summarize_trials(trials)
        assert summary is not None
        assert summary.count == 3
        assert summary.mean == pytest.approx(20.0)

    def test_none_when_nothing_completed(self):
        trials = make_trialset([], incomplete=0) if False else TrialSet(
            protocol="push", graph_name="toy", num_vertices=10
        )
        assert summarize_trials(trials) is None
