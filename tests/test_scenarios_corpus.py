"""Tests for the corpus manifest layer (repro.scenarios.corpus) and CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.graphs.graph import Graph
from repro.scenarios import (
    ScenarioError,
    corpus_report,
    corpus_status,
    load_corpus,
    run_corpus,
)
from repro.store import ResultStore

#: A small connected fixture graph: a 6-cycle with two chords.
FIXTURE_EDGES = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n1 4\n"


@pytest.fixture
def manifest(tmp_path):
    """A two-scenario corpus manifest (JSON) with a checked-in edge file."""
    (tmp_path / "ring.edges").write_text(FIXTURE_EDGES)
    payload = {
        "corpus": "test-corpus",
        "defaults": {"trials": 2, "protocols": ["push"]},
        "scenarios": [
            {
                "name": "ingested-ring",
                "graph": {"kind": "file", "path": "ring.edges"},
                "source": "max-degree",
                "sizes": [1],
                "rumors": {"count": 2, "interval": 2, "trials": 1},
            },
            {
                "name": "tiny-sbm",
                "graph": {"kind": "sbm", "num_blocks": 2, "p_in": 0.6, "p_out": 0.2},
                "sizes": [16, 24],
            },
        ],
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadCorpus:
    def test_load_resolves_relative_paths(self, manifest):
        corpus = load_corpus(manifest)
        assert corpus.name == "test-corpus"
        assert [s.name for s in corpus.scenarios] == ["ingested-ring", "tiny-sbm"]
        ring = corpus.scenario("ingested-ring")
        # The file path was resolved against the manifest's directory.
        assert ring.graph["path"] == str(manifest.parent / "ring.edges")
        assert ring.trials == 2  # from defaults

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "corpus": "dup",
            "scenarios": [
                {"name": "a", "graph": "complete", "sizes": [8]},
                {"name": "a", "graph": "cycle", "sizes": [8]},
            ],
        }))
        with pytest.raises(ScenarioError, match="duplicate scenario name"):
            load_corpus(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"corpus": "x", "scenario": []}))
        with pytest.raises(ScenarioError):
            load_corpus(path)


class TestRunCorpus:
    def test_cold_then_warm_with_zero_constructions(self, manifest, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        cold = run_corpus(load_corpus(manifest), store=store)
        # Cold: every cell computed (2 sweep cells + 2*1 sweep cells for
        # sizes [16, 24]... counted straight off the summary), plus the
        # rumor document.
        assert cold.computed > 0 and cold.cached == 0
        assert cold.graph_constructions > 0

        warm = run_corpus(load_corpus(manifest), store=store)
        assert warm.computed == 0
        assert warm.cached == cold.computed
        assert warm.graph_constructions == 0

    def test_interrupted_run_resumes(self, manifest, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        corpus = load_corpus(manifest)
        # "Interrupt": only the first scenario ran before the crash.
        partial = run_corpus(corpus, store=store, names=["ingested-ring"])
        assert [s.name for s in partial.scenarios] == ["ingested-ring"]

        resumed = run_corpus(corpus, store=store)
        by_name = {s.name: s for s in resumed.scenarios}
        assert by_name["ingested-ring"].computed == 0
        assert by_name["ingested-ring"].rumor_computed == 0
        assert by_name["tiny-sbm"].computed == by_name["tiny-sbm"].total_cells

    def test_status_and_report(self, manifest, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        corpus = load_corpus(manifest)
        empty = corpus_status(corpus, store=store)
        assert empty.cached == 0

        run_corpus(corpus, store=store)
        before = Graph.construction_count
        status = corpus_status(corpus, store=store)
        assert status.computed == 0
        assert status.cached > 0
        assert {s.name: s.missing for s in status.scenarios} == {
            "ingested-ring": 0, "tiny-sbm": 0,
        }
        text = corpus_report(corpus, store=store)
        # Status and report are pure store reads: no graph was built.
        assert Graph.construction_count == before
        assert "ingested-ring" in text and "tiny-sbm" in text
        assert "Multi-rumor contention" in text

    def test_report_strict_raises_on_missing(self, manifest, tmp_path):
        store = ResultStore(str(tmp_path / "empty"))
        corpus = load_corpus(manifest)
        with pytest.raises(KeyError):
            corpus_report(corpus, store=store, strict=True)
        # Non-strict renders placeholders instead.
        text = corpus_report(corpus, store=store)
        assert "tiny-sbm" in text


class TestRumorsValidation:
    """The ``rumors`` block is outside input: bad values fail at plan time."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lazy", "false"),
            ("lazy", 1),
            ("num_agents", 2.5),
            ("num_agents", 0),
            ("num_agents", True),
            ("agent_density", 0),
            ("agent_density", -1.5),
            ("agent_density", "1.0"),
            ("max_rounds", -1),
            ("max_rounds", 10.5),
        ],
    )
    def test_bad_value_names_scenario_and_key(self, manifest, tmp_path, key, value):
        payload = json.loads(manifest.read_text())
        payload["scenarios"][0]["rumors"][key] = value
        manifest.write_text(json.dumps(payload))
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(ScenarioError, match=f"'ingested-ring'.*'{key}'"):
            run_corpus(load_corpus(manifest), store=store)
        # Planning precedes every sweep, so nothing was computed.
        assert list(store.keys()) == []

    @pytest.mark.parametrize(
        "key, value",
        [("lazy", True), ("num_agents", 3), ("num_agents", None), ("max_rounds", 0),
         ("max_rounds", None), ("agent_density", 2)],
    )
    def test_good_values_run(self, manifest, tmp_path, key, value):
        payload = json.loads(manifest.read_text())
        payload["scenarios"][0]["rumors"][key] = value
        manifest.write_text(json.dumps(payload))
        store = ResultStore(str(tmp_path / "store"))
        summary = run_corpus(load_corpus(manifest), store=store, names=["ingested-ring"])
        assert summary.scenarios[0].rumor_computed == summary.scenarios[0].rumor_cells == 1


class TestCorpusCli:
    def test_run_status_report(self, manifest, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["corpus", "run", str(manifest), "--store", store]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert cold["computed"] > 0

        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert warm["computed"] == 0
        assert warm["graph_constructions"] == 0

        assert main(["corpus", "status", str(manifest), "--store", store]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["cached"] == cold["computed"]

        out_path = tmp_path / "report.md"
        assert main([
            "corpus", "report", str(manifest), "--store", store,
            "--output", str(out_path),
        ]) == 0
        assert "tiny-sbm" in out_path.read_text()

    def test_run_rejects_no_store(self, manifest, capsys):
        assert main(["corpus", "run", str(manifest), "--no-store"]) == 2
        assert "store-backed" in capsys.readouterr().err

    def test_missing_manifest_fails_cleanly(self, tmp_path, capsys):
        assert main(["corpus", "run", str(tmp_path / "nope.json")]) == 2

    def test_run_scenario_flag(self, manifest, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "run", "--scenario", f"{manifest}#tiny-sbm", "--store", store,
        ]) == 0
        assert "tiny-sbm" in capsys.readouterr().out

    def test_run_requires_exactly_one_target(self, capsys):
        assert main(["run"]) == 2
        assert main(["run", "fig1a-star", "--scenario", "x#y"]) == 2

    def test_report_scenario_sections(self, manifest, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["corpus", "run", str(manifest), "--store", store]) == 0
        capsys.readouterr()
        assert main([
            "report", "--scenario", str(manifest), "--only", "tiny-sbm",
            "--from-store", "--store", store,
        ]) == 0
        out = capsys.readouterr().out
        assert "tiny-sbm" in out
