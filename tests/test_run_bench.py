"""``benchmarks/run_bench.py``: a failing gate is never written as the
baseline, and peak RSS is measured per cell."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import star

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import run_bench  # noqa: E402


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    """Replace every measurement with canned, passing numbers."""
    output = tmp_path / "BENCH_batch.json"
    monkeypatch.setattr(run_bench, "OUTPUT", output)
    monkeypatch.setattr(run_bench, "sweep_cases", lambda: [None])
    monkeypatch.setattr(run_bench, "extra_cases", lambda: [None])
    sweep = [
        {"protocol": protocol, "one_seed_calls_seconds": 5.0, "batched_seconds": 1.0}
        for protocol in run_bench.ACCEPTANCE_PROTOCOLS
    ]
    monkeypatch.setattr(run_bench, "measure_cells", lambda cases: sweep)
    monkeypatch.setattr(
        run_bench,
        "measure_dynamics",
        lambda case: [{"static_overhead": 0.01, "static_results_identical": True}],
    )
    monkeypatch.setattr(run_bench, "measure_workers", lambda: {})
    monkeypatch.setattr(
        run_bench,
        "measure_store",
        lambda: {
            "warm_speedup": 50.0,
            "warm_cells_computed": 0,
            "warm_graph_constructions": 0,
            "warm_results_identical_to_cold": True,
        },
    )
    monkeypatch.setattr(
        run_bench,
        "measure_scale",
        lambda max_n: [{"n": max_n, "rounds_per_second": 10.0, "completion_rate": 1.0}],
    )
    telemetry = {"trace_overhead": 0.0, "traced_results_identical": True}
    monkeypatch.setattr(run_bench, "measure_telemetry", lambda: telemetry)
    monkeypatch.setattr(run_bench, "measure_construction", lambda: [])
    return output, telemetry


def test_passing_full_run_writes_the_baseline(stubbed):
    output, _ = stubbed
    assert run_bench.run_sections(run_bench.ALL_SECTIONS, scale_max_n=1024) == 0
    assert output.exists()


def test_failing_gate_refuses_to_write_and_names_the_gate(stubbed, capsys):
    output, telemetry = stubbed
    telemetry["trace_overhead"] = 0.2
    assert run_bench.run_sections(run_bench.ALL_SECTIONS, scale_max_n=1024) == 1
    assert not output.exists()
    out = capsys.readouterr().out
    assert "gates failed: telemetry: trace overhead <= 3%" in out
    assert "not rewritten" in out


def test_failing_gate_in_a_partial_run_exits_nonzero(stubbed, capsys):
    output, telemetry = stubbed
    telemetry["traced_results_identical"] = False
    assert run_bench.run_sections(("telemetry",)) == 1
    assert not output.exists()
    assert "telemetry: trace overhead" in capsys.readouterr().out


@pytest.mark.skipif(
    run_bench.PEAK_RSS_SOURCE != "VmHWM", reason="per-cell peak RSS needs Linux VmHWM"
)
def test_peak_rss_is_measured_per_cell(monkeypatch):
    """A small cell measured after a large one reports its own, small peak."""

    def large():
        ballast = np.ones(128 * 2**20 // 8)  # 128 MiB, every page touched
        assert ballast.sum() > 0
        return star(10)

    monkeypatch.setattr(
        run_bench, "CONSTRUCTION_CASES", (("large", large), ("small", lambda: star(10)))
    )
    large_cell, small_cell = run_bench.measure_construction()
    assert large_cell["peak_rss_bytes"] - small_cell["peak_rss_bytes"] > 100 * 2**20
