"""Tests for experiment configuration structures (repro.experiments.config)."""

from __future__ import annotations

import pytest

from repro.experiments.config import (
    ExperimentConfig,
    GraphCase,
    ProtocolSpec,
    scaled_sizes,
)
from repro.graphs import star


def simple_builder(size, seed):
    return GraphCase(graph=star(size), source=0, size_parameter=size)


def make_config(**overrides):
    payload = dict(
        experiment_id="toy",
        title="Toy",
        paper_reference="none",
        description="toy experiment",
        graph_builder=simple_builder,
        sizes=(8, 16),
        protocols=(ProtocolSpec("push"), ProtocolSpec("push-pull")),
        trials=2,
    )
    payload.update(overrides)
    return ExperimentConfig(**payload)


class TestGraphCase:
    def test_num_vertices_delegates_to_graph(self):
        case = simple_builder(10, 0)
        assert case.num_vertices == 11
        assert case.size_parameter == 10


class TestProtocolSpec:
    def test_display_label_defaults_to_name(self):
        assert ProtocolSpec("push").display_label == "push"

    def test_explicit_label(self):
        spec = ProtocolSpec("visit-exchange", kwargs={"agent_density": 2.0}, label="vx2")
        assert spec.display_label == "vx2"
        assert spec.kwargs == {"agent_density": 2.0}


class TestExperimentConfig:
    def test_valid_config_builds_cases(self):
        config = make_config()
        case = config.build_case(8, 0)
        assert case.num_vertices == 9

    def test_round_budget_none_by_default(self):
        assert make_config().round_budget(8) is None

    def test_round_budget_callable(self):
        config = make_config(max_rounds=lambda n: 10 * n)
        assert config.round_budget(8) == 80

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_config(sizes=())

    def test_empty_protocols_rejected(self):
        with pytest.raises(ValueError):
            make_config(protocols=())

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            make_config(trials=0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            make_config(protocols=(ProtocolSpec("push"), ProtocolSpec("push")))


class TestScaledSizes:
    def test_half_scale(self):
        assert scaled_sizes((100, 200, 400), 0.5) == (50, 100, 200)

    def test_minimum_enforced(self):
        assert scaled_sizes((4, 8), 0.1, minimum=3) == (3, 4)

    def test_strictly_increasing(self):
        scaled = scaled_sizes((10, 11, 12), 0.1)
        assert scaled[0] < scaled[1] < scaled[2]

    def test_identity_scale(self):
        assert scaled_sizes((5, 10), 1.0) == (5, 10)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_sizes((5,), 0.0)
