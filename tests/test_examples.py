"""Smoke tests for the example applications.

The examples double as executable documentation; these tests import every
example module (catching syntax errors and broken imports) and run the cheap
ones end to end with reduced sizes so a refactor of the public API cannot
silently break them.
"""

from __future__ import annotations

import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = [
    "quickstart.py",
    "figure1_sweep.py",
    "regular_graph_theorem1.py",
    "social_network_broadcast.py",
    "coupling_demo.py",
    "fault_tolerant_agents.py",
    "robustness_sweep.py",
    "cached_sweep.py",
    "distributed_sweep.py",
]


def load_example(filename: str):
    """Import an example script as a module without executing ``main``."""
    path = EXAMPLES_DIR / filename
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesImport:
    @pytest.mark.parametrize("filename", ALL_EXAMPLES)
    def test_example_imports_cleanly(self, filename):
        module = load_example(filename)
        assert hasattr(module, "main")
        assert module.__doc__  # every example documents what it demonstrates


class TestCheapExamplesRun:
    def test_quickstart_runs_at_reduced_size(self, capsys):
        module = load_example("quickstart.py")
        module.main(120)
        output = capsys.readouterr().out
        assert "visit-exchange" in output
        assert "Broadcast times" in output

    def test_coupling_demo_runs_at_reduced_size(self, capsys):
        module = load_example("coupling_demo.py")
        module.main(64)
        output = capsys.readouterr().out
        assert "Lemma 13" in output
        assert "True" in output

    def test_fault_tolerant_example_pipeline_component(self, capsys):
        module = load_example("fault_tolerant_agents.py")
        graph = module.build_graph(128)
        module.rumor_pipeline(graph)
        output = capsys.readouterr().out
        assert "Rumor pipeline" in output
        assert "rumor-9" in output

    def test_fault_tolerant_example_runs_as_a_script(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "fault_tolerant_agents.py"), run_name="__main__")
        output = capsys.readouterr().out
        assert "Rumor pipeline" in output
        assert "Broadcast time under agent churn and failures" in output
        assert "80% wipe-out at round 5" in output

    def test_robustness_sweep_runs_at_reduced_size(self, capsys):
        module = load_example("robustness_sweep.py")
        graph = module.build_graph(96)
        results = module.sweep(graph, trials=6)
        # Seed-paired degradation: the harshest rate is slower than baseline.
        for protocol in module.PROTOCOLS:
            assert results[(protocol, 0.4)] > results[(protocol, 0.0)]

    def test_cached_sweep_runs_at_reduced_size(self, capsys):
        module = load_example("cached_sweep.py")
        module.main(sizes=(32, 64), trials=3)
        output = capsys.readouterr().out
        assert "warm results bit-identical to cold: True" in output
        assert "reproduces the table: True" in output

    def test_distributed_sweep_runs_at_reduced_size(self, capsys, monkeypatch):
        # A failed request through the fault proxy must not bench a worker
        # for the full production cooldown inside a smoke test.
        monkeypatch.setattr("repro.store.backends.remote._DOWN_COOLDOWN", 0.2)
        module = load_example("distributed_sweep.py")
        module.main(sizes=(16, 32), trials=2, workers=2)
        output = capsys.readouterr().out
        assert "cells done on the hub: 4/4" in output
        assert "hub results bit-identical to the serial run: True" in output
