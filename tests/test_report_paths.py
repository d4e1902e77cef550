"""One report-section path: files, ``--from-store`` and the JSON payload agree.

Every report section is keyed, loaded, run and rendered through one dispatch
in :mod:`repro.experiments.reporting`.  These tests pin what that buys: the
compute path and the store path write the same bytes, the store path names
every missing section, a payload resolves each sweep's plans once, and the
document cells carry the payload their key hashes.
"""

from __future__ import annotations

import json
import shlex
import sys

import pytest

import repro.store.orchestrator as orchestrator
from repro.cli.main import build_parser, main
from repro.experiments import reporting
from repro.experiments.reporting import (
    REPORT_EXTRA_SECTIONS,
    coupling_result_from_store,
    fairness_result_from_store,
    report_markdown,
    run_report_sections,
    store_report_payload,
)
from repro.scenarios import load_corpus, run_corpus
from repro.store import ResultStore, cell_key

ONLY = ["fig1a-star", "coupling", "fairness"]
SMALL = ["--scale", "0.1", "--trials", "2"]


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind every ``repro`` module global bound to ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


class TestOneRenderPath:
    def test_compute_and_from_store_write_the_payload_markdown(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        computed, stored = tmp_path / "computed.md", tmp_path / "stored.md"
        base = ["report", "--store", store, "--only", *ONLY, *SMALL]
        assert main(base + ["--output", str(computed)]) == 0
        assert main(base + ["--from-store", "--output", str(stored)]) == 0
        capsys.readouterr()
        payload = store_report_payload(store, sections=ONLY, scale=0.1, trials=2)
        assert payload["complete"]
        expected = report_markdown([section["markdown"] for section in payload["sections"]])
        assert computed.read_text() == expected
        assert stored.read_text() == expected

    def test_from_store_names_every_missing_section(self, tmp_path, capsys):
        argv = ["report", "--from-store", "--store", str(tmp_path / "empty")]
        assert main(argv + ["--only", "coupling", "fairness"]) == 1
        err = capsys.readouterr().err
        assert "coupling key=" in err
        assert "fairness key=" in err

    def test_payload_resolves_each_sweep_once(self, tmp_path, monkeypatch):
        calls = []
        original = orchestrator.resolve_sweep_plans

        def counting(config, **kwargs):
            calls.append(config.experiment_id)
            return original(config, **kwargs)

        _patch_everywhere(monkeypatch, original, counting)
        sections = ["fig1a-star", "fig1b-double-star", "coupling"]
        store_report_payload(tmp_path / "store", sections=sections, scale=0.1, trials=2)
        assert calls == ["fig1a-star", "fig1b-double-star"]

    def test_rebound_document_runner_reaches_the_report(self, tmp_path, monkeypatch):
        # A tracer wraps runners by rebinding module globals; the report's
        # dispatch must call through the rebound name.
        calls = []
        original = reporting.run_coupling_experiment

        def counting(**kwargs):
            calls.append(kwargs)
            return original(**kwargs)

        _patch_everywhere(monkeypatch, original, counting)
        [markdown] = run_report_sections(["coupling"], store=tmp_path / "store")
        assert "coupling-congestion" in markdown
        assert len(calls) == 1


class TestDocumentCells:
    @pytest.mark.parametrize("section", REPORT_EXTRA_SECTIONS)
    def test_missing_hint_is_a_valid_command(self, tmp_path, section):
        loader = {
            "coupling": coupling_result_from_store,
            "fairness": fairness_result_from_store,
        }[section]
        with pytest.raises(KeyError) as excinfo:
            loader(ResultStore(tmp_path / "empty"))
        command = excinfo.value.args[0].split("`")[1]
        argv = shlex.split(command)
        assert argv[0] == "repro"
        args = build_parser().parse_args(argv[1:])
        assert args.command == "report"
        assert args.only == [section]

    def test_sidecar_cell_hashes_to_its_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_report_sections(["coupling", "fairness"], store=store)
        (tmp_path / "ring.edges").write_text("0 1\n1 2\n2 3\n3 0\n")
        manifest = tmp_path / "corpus.json"
        manifest.write_text(
            json.dumps(
                {
                    "corpus": "rumor-corpus",
                    "scenarios": [
                        {
                            "name": "ring",
                            "graph": {"kind": "file", "path": "ring.edges"},
                            "sizes": [1],
                            "rumors": {"count": 2, "interval": 2, "trials": 1},
                        }
                    ],
                }
            )
        )
        run_corpus(load_corpus(manifest), store=store)
        kinds = set()
        for key in store.keys():
            sidecar = store.read_sidecar(key)
            kind = sidecar.get("kind", "trial-set")
            if kind != "trial-set":
                kinds.add(kind)
                assert cell_key(sidecar["cell"]) == key, kind
        assert kinds == {"coupling", "fairness", "multi-rumor"}

