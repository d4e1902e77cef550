"""``benchmarks/run_bench.py``: a failing gate is never written as the
baseline, timed legs never touch a result store, and peak RSS is measured
per cell."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.figure1 import HEAVY_TREE_CASE
from repro.graphs import star

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import run_bench  # noqa: E402

GATE_NAMES = {gate.name for gate in run_bench.GATES}


def _ratio(value):
    return {"value": value, "iqr": [value, value], "pairs": run_bench.MIN_PAIRS}


def _sequential_keys(node):
    """Every ``sequential_*`` key anywhere in a JSON document."""
    if isinstance(node, dict):
        own = [key for key in node if key.startswith("sequential_")]
        return own + [k for value in node.values() for k in _sequential_keys(value)]
    if isinstance(node, list):
        return [k for value in node for k in _sequential_keys(value)]
    return []


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    """Replace every section with canned, passing records."""
    output = tmp_path / "BENCH_batch.json"
    monkeypatch.setattr(run_bench, "OUTPUT", output)
    records = {
        "sweep": {"speedup": _ratio(5.0), "checks": {"results_identical": True}},
        "dynamics": {
            "static_overhead": _ratio(0.01),
            "checks": {"static_results_identical": True},
        },
        "store": {
            "warm_speedup": _ratio(50.0),
            "checks": {
                "warm_results_identical_to_cold": True,
                "zero_warm_cells_computed": True,
                "zero_warm_graph_constructions": True,
            },
        },
        "scale": {
            "top_rounds_per_second": {"n": 1024, "value": 10.0},
            "checks": {"top_size_complete": True},
        },
        "telemetry": {
            "trace_overhead": _ratio(0.0),
            "checks": {"traced_results_identical": True},
        },
    }
    for section, record in records.items():
        monkeypatch.setattr(run_bench, f"measure_{section}", lambda *a, record=record: record)
    monkeypatch.setattr(run_bench, "measure_workers", lambda: {})
    monkeypatch.setattr(run_bench, "measure_construction", lambda: [])
    return output, records


def test_passing_full_run_writes_the_baseline(stubbed):
    output, _ = stubbed
    assert run_bench.run_sections(run_bench.ALL_SECTIONS, scale_max_n=1024) == 0
    payload = json.loads(output.read_text())
    assert {row["name"] for row in payload["gates"]} == GATE_NAMES
    assert all(row["pass"] for row in payload["gates"])
    assert payload["peak_rss_source"] == run_bench.PEAK_RSS_SOURCE
    assert _sequential_keys(payload) == []


def test_failing_gate_refuses_to_write_and_names_the_gate(stubbed, capsys):
    output, records = stubbed
    records["telemetry"]["trace_overhead"] = _ratio(0.2)
    assert run_bench.run_sections(run_bench.ALL_SECTIONS, scale_max_n=1024) == 1
    assert not output.exists()
    out = capsys.readouterr().out
    assert "gates failed: telemetry: trace_overhead <= 0.03" in out
    assert "not rewritten" in out


def test_failing_gate_in_a_partial_run_exits_nonzero(stubbed, capsys):
    output, records = stubbed
    records["telemetry"]["checks"]["traced_results_identical"] = False
    assert run_bench.run_sections(("telemetry",)) == 1
    assert not output.exists()
    assert "gates failed: telemetry: trace_overhead" in capsys.readouterr().out


def test_paired_alternates_the_leg_order_and_reports_the_median(monkeypatch):
    monkeypatch.setattr(run_bench, "MIN_PAIRED_SECONDS", 0.0)
    calls = []
    stat, a, b = run_bench.paired(
        "a", lambda: calls.append("a") or "A", "b", lambda: calls.append("b") or "B"
    )
    assert (a, b) == ("A", "B")
    assert stat["pairs"] == run_bench.MIN_PAIRS
    # One warm-up of each leg, then pairs in alternating order.
    assert calls[:6] == ["a", "b", "a", "b", "b", "a"]
    assert stat["iqr"][0] <= stat["value"] <= stat["iqr"][1]


def test_paired_adds_pairs_until_they_cover_the_minimum_time(monkeypatch):
    """Past ``MIN_PAIRS``, pairs keep coming until their legs' summed time
    reaches ``MIN_PAIRED_SECONDS``; the warm-up runs do not count."""
    clock = [0.0]
    monkeypatch.setattr(run_bench, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    def leg(seconds):
        def run():
            clock[0] += seconds

        return run

    # Exact binary fractions: a pair takes 3/64 s, so 3 s is exactly 64 pairs.
    stat, _, _ = run_bench.paired("a", leg(2**-5), "b", leg(2**-6))
    assert run_bench.MIN_PAIRED_SECONDS == 3.0
    assert stat["pairs"] == 64 > run_bench.MIN_PAIRS
    assert stat["value"] == 2.0
    assert stat["iqr"] == [2.0, 2.0]
    assert (stat["a_seconds"], stat["b_seconds"]) == (round(2**-5, 4), round(2**-6, 4))


def _gate_record(gate, value, checks=True):
    return {gate.statistic: {"value": value}, "checks": {"identical": checks}}


@pytest.mark.parametrize("gate", run_bench.GATES, ids=lambda gate: gate.section)
def test_gate_compares_its_value_to_its_threshold_and_needs_its_checks(gate):
    """Each gate row passes on its side of the threshold, fails on the other,
    takes the threshold itself only for ``<=``/``>=``, and fails on a false
    check whatever its value."""
    if gate.op == ">=":
        good, bad = 2 * gate.threshold, gate.threshold / 2
    else:
        good, bad = gate.threshold - 1, gate.threshold + 1
    assert gate.evaluate(_gate_record(gate, good))["pass"] is True
    assert gate.evaluate(_gate_record(gate, bad))["pass"] is False
    assert gate.evaluate(_gate_record(gate, gate.threshold))["pass"] is (gate.op != "<")
    assert gate.evaluate(_gate_record(gate, good, checks=False))["pass"] is False
    row = gate.evaluate(_gate_record(gate, good))
    assert (row["name"], row["threshold"], row["value"]) == (gate.name, gate.threshold, good)


TINY_WORKERS_CONFIG = ExperimentConfig(
    experiment_id="bench-workers",
    title="tiny workers sweep",
    paper_reference="-",
    description="-",
    graph_builder=HEAVY_TREE_CASE,
    sizes=(63, 127),
    protocols=(ProtocolSpec("visit-exchange"),),
    trials=2,
)


@pytest.fixture
def tiny(monkeypatch):
    """Cheap versions of the sections' sizes and of the paired sampler."""
    monkeypatch.setattr(run_bench, "MIN_PAIRS", 2)
    monkeypatch.setattr(run_bench, "MIN_PAIRED_SECONDS", 0.0)
    monkeypatch.setattr(run_bench, "N", 64)
    monkeypatch.setattr(run_bench, "TELEMETRY_N", 64)
    monkeypatch.setattr(run_bench, "SCALE_MIN_N", 64)
    monkeypatch.setattr(run_bench, "WORKERS", 2)
    monkeypatch.setattr(run_bench, "WORKERS_CONFIG", TINY_WORKERS_CONFIG)


def test_timed_legs_never_read_or_write_repro_store(tiny, monkeypatch, tmp_path):
    """With ``REPRO_STORE`` set, no leg is served from or written to it."""
    store_dir = tmp_path / "store"
    monkeypatch.setenv("REPRO_STORE", str(store_dir))
    trial_sets = []

    def recording(run, trials_of):
        def wrapped(*args, **kwargs):
            result = run(*args, **kwargs)
            trial_sets.extend(trials_of(result))
            return result

        return wrapped

    monkeypatch.setattr(
        run_bench, "run_trial_set", recording(run_bench.run_trial_set, lambda t: [t])
    )
    monkeypatch.setattr(
        run_bench,
        "run_experiment",
        recording(run_bench.run_experiment, lambda r: [c.trials for c in r.cells]),
    )
    run_bench.measure_dynamics()
    run_bench.measure_scale(max_n=64)
    run_bench.measure_telemetry()
    run_bench.measure_workers()
    assert trial_sets
    assert [t.store_status for t in trial_sets] == [None] * len(trial_sets)
    assert not store_dir.exists() or not any(store_dir.iterdir())


def test_sweep_and_store_sections_pass_their_checks(tiny, monkeypatch):
    """The paired legs of the sweep and store sections return matching
    results; every warm leg reads a filled store."""
    monkeypatch.setattr(
        run_bench,
        "STORE_CONFIG",
        replace(run_bench.STORE_CONFIG, sizes=(31,), trials=2),
    )
    for record in (run_bench.measure_sweep(), run_bench.measure_store()):
        assert all(record["checks"].values()), record["checks"]
    assert record["warm_speedup"]["pairs"] == 2


@pytest.mark.parametrize("cpus, applicable", [(1, False), (2, True)])
def test_workers_cell_is_not_applicable_below_its_worker_count(
    tiny, monkeypatch, cpus, applicable
):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cell = run_bench.measure_workers()
    assert cell["applicable"] is applicable
    assert cell["cpu_count"] == cpus
    assert cell["results_identical_to_serial"]


def test_workers_identity_compares_whole_trial_sets(tiny, monkeypatch):
    """Equal mean times are not enough: the cell compares every trial."""
    real = run_bench.run_experiment

    def perturbed(config, **kwargs):
        result = real(config, **kwargs)
        if kwargs.get("workers"):
            results = result.cells[0].trials.results
            results[0] = replace(results[0], messages_sent=results[0].messages_sent + 1)
        return result

    monkeypatch.setattr(run_bench, "run_experiment", perturbed)
    assert run_bench.measure_workers()["results_identical_to_serial"] is False


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
