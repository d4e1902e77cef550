"""Tests for the experiment registry and the registered definitions."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec
from repro.experiments.registry import get_experiment, list_experiment_ids, register
from repro.graphs import star
from repro.theory.predictions import PAPER_PREDICTIONS


EXPECTED_IDS = {
    "fig1a-star",
    "fig1b-double-star",
    "fig1c-heavy-tree",
    "fig1d-siamese",
    "fig1e-cycle-stars",
    "thm1-regular-random",
    "thm1-regular-slow",
    "thm1-regular-hypercube",
    "thm23-meetx-regular",
    "thm24-25-lower",
    "hybrid-double-star",
    "hybrid-heavy-tree",
    "ablation-agent-density",
    "ablation-initial-placement",
    "ablation-laziness",
    "robustness-star",
    "robustness-siamese",
    "robustness-regular",
}


class TestRegistry:
    def test_all_expected_experiments_registered(self):
        assert EXPECTED_IDS.issubset(set(list_experiment_ids()))

    def test_get_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("does-not-exist")

    def test_duplicate_registration_rejected(self):
        def factory():
            return ExperimentConfig(
                experiment_id="fig1a-star",
                title="dup",
                paper_reference="",
                description="",
                graph_builder=lambda n, s: GraphCase(star(n), 0, n),
                sizes=(4,),
                protocols=(ProtocolSpec("push"),),
            )

        with pytest.raises(ValueError):
            register("fig1a-star", factory)

    def test_registered_factories_produce_matching_ids(self):
        for experiment_id in list_experiment_ids():
            config = get_experiment(experiment_id)
            assert config.experiment_id == experiment_id


class TestRegisteredDefinitions:
    @pytest.mark.parametrize("experiment_id", sorted(EXPECTED_IDS))
    def test_every_experiment_builds_its_smallest_case(self, experiment_id):
        config = get_experiment(experiment_id)
        case = config.build_case(config.sizes[0], seed=0)
        assert case.graph.is_connected()
        assert 0 <= case.source < case.graph.num_vertices
        assert config.sizes == tuple(sorted(config.sizes))

    @pytest.mark.parametrize("experiment_id", sorted(EXPECTED_IDS))
    def test_round_budgets_are_positive(self, experiment_id):
        config = get_experiment(experiment_id)
        budget = config.round_budget(config.sizes[0])
        assert budget is None or budget > 0

    def test_claim_ids_reference_known_predictions(self):
        known = {p.claim_id for p in PAPER_PREDICTIONS}
        for experiment_id in list_experiment_ids():
            config = get_experiment(experiment_id)
            for claim in config.claim_ids:
                assert claim in known, f"{experiment_id} references unknown claim {claim}"

    def test_figure1_experiments_cover_all_figure1_claims(self):
        covered = set()
        for experiment_id in EXPECTED_IDS:
            if experiment_id.startswith("fig1"):
                covered.update(get_experiment(experiment_id).claim_ids)
        figure1_claims = {p.claim_id for p in PAPER_PREDICTIONS if p.claim_id.startswith("lemma")}
        assert figure1_claims.issubset(covered)

    def test_heavy_tree_experiment_uses_leaf_source(self):
        config = get_experiment("fig1c-heavy-tree")
        case = config.build_case(config.sizes[0], seed=0)
        from repro.graphs.heavy_binary_tree import tree_leaves

        assert case.source in tree_leaves(case.graph)

    def test_regular_experiments_build_regular_graphs(self):
        for experiment_id in ("thm1-regular-random", "thm1-regular-slow", "thm23-meetx-regular"):
            config = get_experiment(experiment_id)
            case = config.build_case(config.sizes[0], seed=0)
            assert case.graph.is_regular()

    def test_regular_degree_meets_log_assumption(self):
        import math

        config = get_experiment("thm1-regular-random")
        case = config.build_case(config.sizes[-1], seed=0)
        degree = case.graph.regularity_degree()
        assert degree >= math.log(case.graph.num_vertices)

    def test_robustness_experiments_sweep_failure_rates(self):
        from repro.experiments.robustness import FAILURE_RATES
        from repro.graphs.dynamic import BernoulliEdgeFailures
        from repro.scenarios import resolve_dynamics

        for experiment_id in ("robustness-star", "robustness-siamese", "robustness-regular"):
            config = get_experiment(experiment_id)
            rates = []
            for spec in config.protocols:
                dynamics = spec.kwargs.get("dynamics")
                if dynamics is None:
                    rates.append(0.0)
                    continue
                schedule = resolve_dynamics(dynamics)
                assert isinstance(schedule, BernoulliEdgeFailures)
                rates.append(schedule.rate)
            # Every protocol of the experiment covers the whole rate axis,
            # including the failure-free (fast-path) baseline.
            assert set(rates) == set(FAILURE_RATES)
            # The rate axis is seed-paired: every rate of one protocol
            # derives its trial seeds from the same key.
            keys = {}
            for spec in config.protocols:
                keys.setdefault(spec.name, set()).add(spec.seed_key)
            assert all(len(k) == 1 for k in keys.values())

    def test_seed_label_pairs_trials_across_specs(self):
        from repro.experiments.runner import run_trial_set
        from repro.graphs import star

        case = GraphCase(graph=star(40), source=1, size_parameter=40)
        a = run_trial_set(
            ProtocolSpec("push", label="push f=0.0", seed_label="push"),
            case,
            trials=4,
            base_seed=3,
        )
        b = run_trial_set(
            ProtocolSpec("push", label="push f=0.1", seed_label="push"),
            case,
            trials=4,
            base_seed=3,
        )
        # Different display labels, same seed key, no dynamics: the runs are
        # literally the same trials — that is what "seed-paired" means.
        assert a.broadcast_times() == b.broadcast_times()
