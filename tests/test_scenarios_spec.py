"""Tests for the unified ScenarioSpec API and the shared spec grammar."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scenarios import (
    ScenarioError,
    ScenarioSpec,
    graph_source_kinds,
    resolve_graph_spec,
    resolve_scenario,
)
from repro.specs import SpecError, parse_spec_string


class TestSpecGrammar:
    def test_parse_to_dict(self):
        spec = parse_spec_string("sbm:num_blocks=8,p_in=0.05,p_out=0.001")
        assert spec == {"kind": "sbm", "num_blocks": 8, "p_in": 0.05, "p_out": 0.001}

    def test_scalar_coercion(self):
        spec = parse_spec_string("x:flag=true,off=false,n=3,r=0.5,s=hello")
        assert spec["flag"] is True and spec["off"] is False
        assert spec["n"] == 3 and spec["r"] == 0.5 and spec["s"] == "hello"

    def test_bare_kind(self):
        assert parse_spec_string("push-pull") == {"kind": "push-pull"}

    def test_malformed_specs_rejected(self):
        with pytest.raises(SpecError):
            parse_spec_string("")
        with pytest.raises(SpecError):
            parse_spec_string(":rate=1")
        with pytest.raises(SpecError):
            parse_spec_string("kind:novalue")


class TestGraphSourceSpecs:
    def test_string_and_dict_forms_agree(self):
        from_string = resolve_graph_spec("sbm:num_blocks=2,p_in=0.2,p_out=0.01")
        from_dict = resolve_graph_spec(
            {"kind": "sbm", "num_blocks": 2, "p_in": 0.2, "p_out": 0.01}
        )
        assert from_string == from_dict

    def test_kinds_cover_paper_families_and_corpus(self):
        kinds = graph_source_kinds()
        for expected in ("star", "double-star", "complete", "powerlaw", "sbm",
                         "geometric", "file"):
            assert expected in kinds

    def test_unknown_kind_and_option_rejected(self):
        with pytest.raises(ScenarioError, match="unknown graph source kind"):
            resolve_graph_spec({"kind": "smallworld"})
        with pytest.raises(ScenarioError, match="unknown option"):
            resolve_graph_spec({"kind": "sbm", "blocks": 4, "p_in": 0.1, "p_out": 0.01})


class TestResolveScenario:
    def test_dict_entry_compiles_to_config(self):
        spec = resolve_scenario(
            {
                "name": "toy",
                "graph": {"kind": "complete"},
                "protocols": ["push"],
                "sizes": [16, 32],
                "trials": 2,
            }
        )
        assert isinstance(spec, ScenarioSpec)
        config = spec.to_config()
        assert config.experiment_id == "toy"
        assert config.sizes == (16, 32)
        assert [p.name for p in config.protocols] == ["push"]
        case = config.graph_builder(16, 123)
        assert case.graph.num_vertices == 16
        assert case.source == 0

    def test_defaults(self):
        spec = resolve_scenario({"name": "d", "graph": "complete"})
        assert spec.sizes == (256, 512, 1024)
        assert [p.name for p in spec.protocols] == [
            "push", "push-pull", "visit-exchange",
        ]

    def test_scenario_dynamics_merges_into_protocols(self):
        spec = resolve_scenario(
            {
                "name": "dyn",
                "graph": "complete",
                "protocols": ["push", {"kind": "push", "label": "pinned",
                                       "dynamics": "bernoulli-edges:rate=0.5"}],
                "dynamics": "bernoulli-edges:rate=0.1,seed=1",
                "sizes": [8],
            }
        )
        config = spec.to_config()
        assert config.protocols[0].kwargs["dynamics"] == "bernoulli-edges:rate=0.1,seed=1"
        # A protocol that pins its own schedule keeps it.
        assert config.protocols[1].kwargs["dynamics"] == "bernoulli-edges:rate=0.5"

    def test_source_policy_enters_builder_spec(self):
        base = {"name": "s", "graph": "complete", "sizes": [8]}
        zero = resolve_scenario(dict(base)).to_config()
        hub = resolve_scenario(dict(base, source="max-degree")).to_config()
        assert (
            zero.graph_builder.case_spec(8, 0) != hub.graph_builder.case_spec(8, 0)
        )

    def test_bad_specs_rejected(self):
        with pytest.raises(ScenarioError, match="name"):
            resolve_scenario({"graph": "complete"})
        with pytest.raises(ScenarioError, match="graph"):
            resolve_scenario({"name": "x"})
        with pytest.raises(ScenarioError, match="unknown key"):
            resolve_scenario({"name": "x", "graph": "complete", "sized": [8]})
        with pytest.raises(ScenarioError, match="positive"):
            resolve_scenario({"name": "x", "graph": "complete", "sizes": [0]})
        with pytest.raises(ScenarioError):
            resolve_scenario(42)


class TestResolveDynamics:
    def test_canonical_spelling_does_not_warn(self):
        from repro.scenarios import resolve_dynamics

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert resolve_dynamics(None) is None
            schedule = resolve_dynamics("bernoulli-edges:rate=0.1")
        assert schedule is not None


# ---------------------------------------------------------------------------
# Property: a manifest entry resolved twice yields identical cell keys.
# ---------------------------------------------------------------------------
_GRAPHS = st.sampled_from(
    [
        {"kind": "complete"},
        {"kind": "powerlaw", "exponent": 2.5, "min_degree": 2},
        {"kind": "sbm", "num_blocks": 2, "p_in": 0.3, "p_out": 0.05},
        {"kind": "geometric", "radius": 0.25},
    ]
)

_ENTRIES = st.fixed_dictionaries(
    {
        "graph": _GRAPHS,
        "sizes": st.lists(st.integers(8, 48), min_size=1, max_size=2, unique=True),
        "trials": st.integers(1, 2),
        "source": st.sampled_from(["zero", "max-degree"]),
        "protocols": st.sampled_from([["push"], ["push", "push-pull"]]),
    }
)


@given(entry=_ENTRIES, base_seed=st.integers(0, 3))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_manifest_entry_resolved_twice_gives_identical_cell_keys(entry, base_seed):
    from repro.store.orchestrator import resolve_sweep_plans

    def keys():
        config = resolve_scenario({"name": "prop", **entry}).to_config()
        plans = resolve_sweep_plans(
            config,
            base_seed=base_seed,
            sizes=config.sizes,
            trials=config.trials,
        )
        return [plan.plan.key for plan in plans]

    first, second = keys(), keys()
    assert first == second
    assert len(set(first)) == len(first)  # every cell distinct
