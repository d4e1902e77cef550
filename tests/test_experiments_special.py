"""Tests for the coupling and fairness experiments (non-sweep experiments)."""

from __future__ import annotations

import pytest

from repro.experiments.coupling_experiment import (
    CouplingExperimentResult,
    run_coupling_experiment,
)
from repro.experiments.fairness_experiment import (
    FairnessExperimentResult,
    default_fairness_graphs,
    run_fairness_experiment,
)


class TestCouplingExperiment:
    @pytest.fixture(scope="class")
    def result(self) -> CouplingExperimentResult:
        return run_coupling_experiment(sizes=(32, 64), runs_per_size=2, base_seed=1)

    def test_sizes_recorded(self, result):
        assert result.sizes == [32, 64]
        assert set(result.summaries) == {32, 64}

    def test_lemma13_holds_everywhere(self, result):
        assert all(row["lemma13 violations"] == 0 for row in result.table_rows())

    def test_congestion_ratio_bounded(self, result):
        # Theorem 10 promises a constant bound; empirically the ratio is small.
        assert max(row["max congestion/T_visitx"] for row in result.table_rows()) < 20

    def test_table_rows_one_per_size(self, result):
        rows = result.table_rows()
        assert len(rows) == 2
        assert rows[0]["n"] == 32
        assert rows[0]["lemma13 violations"] == 0

    def test_runs_stored_per_size(self, result):
        assert len(result.runs[32]) == 2

    def test_invalid_runs_per_size(self):
        with pytest.raises(ValueError):
            run_coupling_experiment(sizes=(16,), runs_per_size=0)


class TestFairnessExperiment:
    @pytest.fixture(scope="class")
    def result(self) -> FairnessExperimentResult:
        return run_fairness_experiment(
            size=64, walk_rounds=60, push_pull_trials=2, base_seed=2
        )

    def test_default_graphs(self):
        graphs = default_fairness_graphs(64, seed=0)
        assert set(graphs) == {"star", "double-star", "random-regular"}
        assert graphs["random-regular"].is_regular()

    def test_reports_present_for_all_cells(self, result):
        assert set(result.reports) == {"star", "double-star", "random-regular"}
        for mechanisms in result.reports.values():
            assert set(mechanisms) == {
                "agents (all traversals)",
                "push-pull (sampled edges)",
            }

    def test_push_pull_starves_the_bridge_edge_but_agents_do_not(self, result):
        # The paper's local-fairness argument: on the double star the bridge
        # edge receives a fair share of agent traversals, but push-pull samples
        # it with probability only O(1/n) per round, so its share of the
        # sampled exchanges is far below the uniform share 1/m.
        from repro.analysis.fairness import expected_uniform_share

        agents = result.reports["double-star"]["agents (all traversals)"]
        ppull = result.reports["double-star"]["push-pull (sampled edges)"]
        uniform = expected_uniform_share(agents.num_edges)
        assert agents.min_share > 0.2 * uniform
        assert ppull.min_share < 0.2 * uniform

    def test_agents_fair_on_every_graph(self, result):
        agent_rows = [
            row for row in result.table_rows() if row["mechanism"] == "agents (all traversals)"
        ]
        assert {row["graph"] for row in agent_rows} == set(result.reports)
        assert all(row["gini"] < 0.35 for row in agent_rows)

    def test_table_rows(self, result):
        rows = result.table_rows()
        assert len(rows) == 6
        assert {"graph", "mechanism", "gini"}.issubset(rows[0].keys())
