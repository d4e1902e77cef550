"""Tests for report generation (repro.experiments.reporting)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    experiment_markdown_section,
    experiment_table,
    get_experiment,
    run_coupling_experiment,
    run_experiment,
    run_fairness_experiment,
)
from repro.experiments.reporting import (
    claims_for_experiment,
    coupling_markdown_section,
    fairness_markdown_section,
)


@pytest.fixture(scope="module")
def small_fig1a_result():
    config = get_experiment("fig1a-star")
    return run_experiment(config, base_seed=0, sizes=(16, 32), trials=2)


class TestExperimentTable:
    def test_plain_table_contains_sizes_and_protocols(self, small_fig1a_result):
        text = experiment_table(small_fig1a_result)
        assert "16" in text and "32" in text
        assert "push" in text and "visit-exchange" in text

    def test_markdown_table_pipe_format(self, small_fig1a_result):
        text = experiment_table(small_fig1a_result, markdown=True)
        assert text.startswith("| size | n |")
        assert text.count("\n") >= 3


class TestMarkdownSection:
    def test_section_structure(self, small_fig1a_result):
        text = experiment_markdown_section(small_fig1a_result)
        assert text.startswith("### `fig1a-star`")
        assert "Paper claims checked:" in text
        assert "Measured growth:" in text
        assert "| size | n |" in text

    def test_claims_listed(self, small_fig1a_result):
        claims = claims_for_experiment(small_fig1a_result)
        assert {c.claim_id for c in claims} == set(small_fig1a_result.config.claim_ids)
        assert {"lemma2a", "lemma2b", "lemma2c", "lemma2d"} <= {c.claim_id for c in claims}

    def test_claims_table_has_a_verdict_per_claim(self, small_fig1a_result):
        text = experiment_markdown_section(small_fig1a_result)
        assert "| claim | statistic | 95% interval | verdict |" in text
        assert text.count("**pass**") + text.count("**fail**") + text.count(
            "**inconclusive**"
        ) == len(small_fig1a_result.config.claim_ids)

    def test_notes_included_when_present(self, small_fig1a_result):
        assert "Notes:" in experiment_markdown_section(small_fig1a_result)


class TestSpecialSections:
    def test_coupling_section(self):
        result = run_coupling_experiment(sizes=(32,), runs_per_size=1, base_seed=0)
        text = coupling_markdown_section(result)
        assert "coupling-congestion" in text
        assert "Lemma 13" in text
        assert "| n |" in text

    def test_fairness_section(self):
        result = run_fairness_experiment(size=48, walk_rounds=40, push_pull_trials=1)
        text = fairness_markdown_section(result)
        assert "fairness" in text
        assert "gini" in text.lower()
