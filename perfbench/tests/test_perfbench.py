"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import paper  # noqa: E402
import run  # noqa: E402
import sim  # noqa: E402
from tracer import ATTRIBUTED, LAYER_UNITS  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TINY_REPORT = paper.ReportSize(scale=0.1, trials=2)


def tiny(name: str, seed: int, workdir: Path):
    if name in ("expander-2e16", "powerlaw-2e16"):
        return run.SimWorkload(name, seed, workdir, log2n=10, trials=2)
    if name == "paper-cold":
        return paper.PaperCold(seed, workdir, TINY_REPORT)
    return paper.ReportHttpWarm(seed, workdir, TINY_REPORT)


def measured(name: str, trace: bool, workdir: Path, seed: int = 3) -> dict:
    workload = tiny(name, seed, workdir)
    try:
        setups, results = run.measure(workload, 0.0, trace, setup_samples=2)
    finally:
        workload.close()
    return run.summarize(setups, results, trace)


@pytest.fixture(autouse=True)
def clean_environment():
    common.apply_clean_env()


def test_spec_names_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, tmp_path):
    for trace, spec in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        line = measured(name, trace, tmp_path)
        assert line["correct"], line
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values()), line


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_self_times_add_up_to_the_pass(name, tmp_path):
    metrics = {k: v["value"] for k, v in measured(name, True, tmp_path)["metrics"].items()}
    thread_seconds = metrics["trace.pass_s"] * metrics["trace.client_threads"]
    assert sum(metrics[m] for m in ATTRIBUTED) == pytest.approx(thread_seconds, rel=1e-9)
    # Nothing is counted twice: the unattributed remainder is not negative.
    assert metrics["other_s"] >= -1e-3 * thread_seconds
    assert metrics["trace.pass_s"] > 0


def test_a_corrupted_cell_counts_as_failed(tmp_path):
    workload = tiny("report-http-warm", 3, tmp_path)
    try:
        workload.setup()
        npz = sorted((workload.store_root / "objects").rglob("*.npz"))[0]
        data = bytearray(npz.read_bytes())
        data[len(data) // 2] ^= 0xFF
        npz.write_bytes(bytes(data))
        result = workload.run_pass(traced=False)
    finally:
        workload.close()
    assert result["failed"] > 0
    line = run.summarize([1.0], [result], trace=False)
    assert not line["correct"]


def test_default_seed_reference_is_checked(tmp_path):
    workload = run.SimWorkload("powerlaw-2e16", common.DEFAULT_SEED, tmp_path, log2n=10, trials=2)
    assert workload.reference is None  # only the full-size cells are pinned
    check = paper.CellCheck(common.DEFAULT_SEED, paper.ReportSize())
    reference = dict(check.reference)
    assert len(reference) == check.expected
    cell = next(iter(reference))
    wrong = dict(reference, **{cell: "0" * 16})
    assert check.failures(reference, []) == 0
    assert check.failures(wrong, []) == 1
    assert check.failures({}, []) == check.expected


def test_disconnected_graph_samples_are_redrawn():
    common.use_checkout_src()
    # Seed 63's first power-law sample is disconnected; set-up redraws it.
    assert sim.build_case("powerlaw-2e16", 63, 16).graph.is_connected()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
