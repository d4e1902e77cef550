"""Tests of the public package surface (imports, registry consistency, simulate)."""

from __future__ import annotations

import pytest

import repro
from repro import KERNEL_REGISTRY, simulate
from repro.core.kernels import BatchKernel
from repro.graphs import star


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis as analysis
        import repro.core as core
        import repro.graphs as graphs
        import repro.theory as theory

        for module in (analysis, core, graphs, theory):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"

    def test_every_public_module_has_a_docstring(self):
        import importlib
        import pkgutil

        for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} is missing a module docstring"


class TestProtocolRegistry:
    def test_registry_names_match_class_names(self):
        for name, cls in KERNEL_REGISTRY.items():
            assert cls.name == name
            assert issubclass(cls, BatchKernel)

    def test_expected_protocols_registered(self):
        assert set(KERNEL_REGISTRY) == {
            "push",
            "push-pull",
            "pull",
            "visit-exchange",
            "meet-exchange",
            "hybrid-ppull-visitx",
        }

    def test_unknown_protocol_name(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            simulate("carrier-pigeon", star(5), seed=1)

    def test_bad_protocol_kwargs_rejected(self):
        with pytest.raises(TypeError):
            simulate("push", star(5), seed=1, agent_density=3.0)


class TestSimulateEntryPoint:
    def test_returns_run_result(self):
        result = simulate("push-pull", star(10), source=0, seed=1)
        assert result.protocol == "push-pull"
        assert result.completed

    def test_protocol_kwargs_forwarded(self):
        result = simulate("visit-exchange", star(10), source=0, seed=1, agent_density=2.0)
        assert result.num_agents == 22

    def test_max_rounds_respected(self):
        result = simulate("push", star(200), source=0, seed=1, max_rounds=2)
        assert not result.completed
        assert result.rounds_executed == 2

    def test_invalid_source_raises(self):
        with pytest.raises(Exception):
            simulate("push", star(5), source=50, seed=1)

    def test_default_source_is_vertex_zero(self):
        result = simulate("push-pull", star(10), seed=1)
        assert result.source == 0
