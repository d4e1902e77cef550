"""Tests for the zero-compute read path: builder manifests, report serving.

The contract under test: once a sweep has run against a store, every later
read of it — warm reruns, ``result_from_store``, the ``/report`` endpoints —
must execute zero simulations *and* zero graph constructions (cell keys
resolve from the journaled builder manifest), and the HTTP layer must
revalidate unchanged answers with ``304`` instead of re-sending them.  Plus
the three contract fixes riding along: HTTP reads feed the gc LRU, the graph
fingerprint is purely structural, and ``ru_maxrss`` units are platform-gated.
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec, scaled_sizes
from repro.experiments.registry import get_experiment
from repro.experiments.reporting import (
    render_report_html,
    report_fingerprint,
    report_section_ids,
    result_from_store,
    store_report_payload,
)
from repro.experiments.runner import run_experiment
from repro.graphs import (
    builder_spec,
    builder_version,
    complete_graph,
    register_builder,
    registered_builders,
    star,
    with_case_spec,
)
from repro.graphs.builders import _REGISTRY
from repro.graphs.graph import Graph
from repro.store import (
    GraphStub,
    ManifestMismatchError,
    RemoteBackend,
    ResultStore,
    StoreService,
    SweepJournal,
    graph_fingerprint,
    resolve_sweep_plans,
    sweep_payload,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from run_bench import rss_multiplier  # noqa: E402


@with_case_spec("complete_graph", lambda size, seed: {"num_vertices": size})
def complete_builder(size, seed):
    return GraphCase(graph=complete_graph(size), source=0, size_parameter=size)


TOY_CONFIG = ExperimentConfig(
    experiment_id="toy-zero-compute",
    title="Toy zero-compute experiment",
    paper_reference="none",
    description="fast experiment used by the zero-compute tests",
    graph_builder=complete_builder,
    sizes=(8, 16),
    protocols=(ProtocolSpec("push"), ProtocolSpec("pull")),
    trials=3,
)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def count_batches(monkeypatch):
    """Patch the runner's kernel dispatch to count cell executions."""
    import repro.experiments.runner as runner_module

    calls = {"n": 0}
    real_run_batch = runner_module.run_batch

    def counting_run_batch(*args, **kwargs):
        calls["n"] += 1
        return real_run_batch(*args, **kwargs)

    monkeypatch.setattr(runner_module, "run_batch", counting_run_batch)
    return calls


def http_get(url, headers=None):
    """(status, bytes, headers) of a GET, treating HTTP errors as responses."""
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


class TestBuilderRegistry:
    def test_every_registry_experiment_builder_is_versioned(self):
        for experiment_id in report_section_ids():
            if experiment_id in ("coupling", "fairness"):
                continue
            config = get_experiment(experiment_id)
            case_spec = getattr(config.graph_builder, "case_spec", None)
            assert case_spec is not None, f"{experiment_id} builder has no case_spec"
            spec = case_spec(config.sizes[0], 0)
            assert spec["family"] in registered_builders()
            assert spec["version"] == builder_version(spec["family"])

    def test_register_is_idempotent_but_conflicts_raise(self):
        register_builder("complete_graph", builder_version("complete_graph"))
        with pytest.raises(ValueError, match="already registered"):
            register_builder("complete_graph", builder_version("complete_graph") + 7)

    def test_unregistered_family_raises(self):
        with pytest.raises(KeyError):
            builder_version("no-such-family")

    def test_builder_spec_params_are_order_insensitive(self):
        a = builder_spec("complete_graph", {"a": 1, "b": 2})
        b = builder_spec("complete_graph", {"b": 2, "a": 1})
        assert a == b
        assert list(a["params"]) == ["a", "b"]


class TestManifestTrust:
    def test_warm_rerun_constructs_zero_graphs(self, store, monkeypatch):
        calls = count_batches(monkeypatch)
        cold = run_experiment(TOY_CONFIG, base_seed=1, store=store)
        assert calls["n"] == 4
        before = Graph.construction_count
        warm = run_experiment(TOY_CONFIG, base_seed=1, store=store)
        assert calls["n"] == 4, "warm rerun must execute zero simulation cells"
        assert Graph.construction_count == before, (
            "warm rerun must construct zero graphs: keys resolve from the "
            "journaled builder manifest"
        )
        assert [c.trials for c in warm.cells] == [c.trials for c in cold.cells]

    def test_warm_report_constructs_zero_graphs(self, store):
        run_experiment(TOY_CONFIG, base_seed=1, store=store)
        before = Graph.construction_count
        result = result_from_store(TOY_CONFIG, store, base_seed=1)
        assert len(result.cells) == 4
        assert Graph.construction_count == before

    def test_manifest_round_trips_through_stub_planned_cells(self, store):
        run_experiment(TOY_CONFIG, base_seed=1, store=store)
        journal = SweepJournal(
            store,
            sweep_payload(
                TOY_CONFIG,
                base_seed=1,
                sizes=TOY_CONFIG.sizes,
                trials=TOY_CONFIG.trials,
            ),
        )
        manifest = journal.last_manifest()["cells"]
        plans = resolve_sweep_plans(
            TOY_CONFIG,
            base_seed=1,
            sizes=TOY_CONFIG.sizes,
            trials=TOY_CONFIG.trials,
            manifest=manifest,
        )
        assert all(isinstance(sp.plan.graph, GraphStub) for sp in plans)
        assert [sp.manifest_entry() for sp in plans] == manifest

    def test_builder_version_bump_invalidates_the_manifest(self, store, monkeypatch):
        run_experiment(TOY_CONFIG, base_seed=1, store=store)
        monkeypatch.setitem(_REGISTRY, "complete_graph", builder_version("complete_graph") + 1)
        before = Graph.construction_count
        result = result_from_store(TOY_CONFIG, store, base_seed=1, strict=False)
        assert Graph.construction_count > before, (
            "a builder version bump must distrust the manifest and rebuild"
        )
        # The rebuilt graphs hash to the same fingerprints, so the cells
        # themselves are still found — versioning gates trust, not identity.
        assert len(result.cells) == 4

    def test_paranoia_mode_catches_a_tampered_manifest(self, store, monkeypatch):
        run_experiment(TOY_CONFIG, base_seed=1, store=store)
        journal = SweepJournal(
            store,
            sweep_payload(
                TOY_CONFIG,
                base_seed=1,
                sizes=TOY_CONFIG.sizes,
                trials=TOY_CONFIG.trials,
            ),
        )
        manifest = [dict(entry) for entry in journal.last_manifest()["cells"]]
        for entry in manifest:
            entry["graph"] = dict(entry["graph"], fingerprint="f" * 64)
        # Trusted blindly without paranoia mode (the tampered fingerprint
        # changes every derived key, so the cells just come back missing)...
        plans = resolve_sweep_plans(
            TOY_CONFIG,
            base_seed=1,
            sizes=TOY_CONFIG.sizes,
            trials=TOY_CONFIG.trials,
            manifest=manifest,
        )
        assert all(sp.plan.graph.trusted_fingerprint == "f" * 64 for sp in plans)
        # ...but the re-verify pass rebuilds and cross-checks.
        monkeypatch.setenv("REPRO_VERIFY_MANIFEST", "1")
        with pytest.raises(ManifestMismatchError, match="does not match a rebuild"):
            resolve_sweep_plans(
                TOY_CONFIG,
                base_seed=1,
                sizes=TOY_CONFIG.sizes,
                trials=TOY_CONFIG.trials,
                manifest=manifest,
            )

    def test_verify_mode_passes_an_honest_manifest(self, store, monkeypatch):
        run_experiment(TOY_CONFIG, base_seed=1, store=store)
        monkeypatch.setenv("REPRO_VERIFY_MANIFEST", "1")
        result = result_from_store(TOY_CONFIG, store, base_seed=1)
        assert len(result.cells) == 4


class TestStructuralFingerprint:
    def test_fingerprint_ignores_the_graph_name(self):
        a = star(12)
        b = Graph.from_edges(a.num_vertices, a.edges(), name="renamed-star")
        assert a.name != b.name
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_fingerprint_still_separates_structures(self):
        assert graph_fingerprint(star(12)) != graph_fingerprint(star(13))

    def test_stub_short_circuits_with_its_trusted_fingerprint(self):
        stub = GraphStub(
            trusted_fingerprint="ab" * 32, name="stub", num_vertices=4, num_edges=3
        )
        assert graph_fingerprint(stub) == "ab" * 32


class TestRssUnits:
    def test_ru_maxrss_units_are_platform_gated(self):
        assert rss_multiplier("darwin") == 1  # macOS reports bytes
        assert rss_multiplier("linux") == 1024  # Linux reports KiB
        assert rss_multiplier("freebsd13") == 1024


class TestHttpReadsFeedTheLru:
    def test_object_served_over_http_survives_lru_gc(self, tmp_path):
        from repro.experiments.runner import run_trial_set

        store = ResultStore(tmp_path / "served")
        for seed in (0, 1, 2):
            case = GraphCase(graph=star(30), source=0, size_parameter=30)
            run_trial_set(ProtocolSpec("push"), case, trials=2, base_seed=seed, store=store)
        keys = list(store.keys())
        assert len(keys) == 3
        now = time.time()
        # Stamp distinct last-read times; keys[0] is the coldest on disk.
        for age, key in zip((300, 200, 100), keys):
            for path in store.object_paths(key):
                os.utime(path, (now - age, now - age))
        with StoreService(store, port=0) as service:
            status, _, _ = http_get(f"{service.url}/cells/{keys[0]}/object")
            assert status == 200
        sizes = {
            key: sum(p.stat().st_size for p in store.object_paths(key)) for key in keys
        }
        removed = store.gc(max_bytes=sizes[keys[0]] + sizes[keys[2]] + 1)
        # The HTTP read bumped keys[0] to most-recently-used, so the LRU
        # eviction takes keys[1]; without the service-side mark_read the
        # served-hot keys[0] would have been evicted instead.
        assert removed == [keys[1]]
        assert set(store.keys()) == {keys[0], keys[2]}


class TestReportEndpoints:
    SCALE = 0.05

    @pytest.fixture
    def warmed(self, tmp_path):
        """A store warmed with one registry experiment at a small scale."""
        config = get_experiment("fig1a-star")
        store = ResultStore(tmp_path / "report-store")
        run_experiment(
            config,
            base_seed=0,
            sizes=scaled_sizes(config.sizes, self.SCALE),
            trials=2,
            store=store,
        )
        return store

    def report_url(self, service, name, suffix=".json"):
        return f"{service.url}/report/{name}{suffix}?scale={self.SCALE}&trials=2"

    def test_warm_json_report_with_zero_compute(self, warmed, monkeypatch):
        calls = count_batches(monkeypatch)
        with StoreService(warmed, port=0) as service:
            before = Graph.construction_count
            status, body, headers = http_get(self.report_url(service, "fig1a-star"))
            assert status == 200
            assert headers["Content-Type"] == "application/json"
            payload = json.loads(body)
            assert payload["complete"] is True
            section = payload["sections"][0]
            assert section["id"] == "fig1a-star"
            assert section["status"] == "complete"
            assert section["rows"], "a complete section carries its table rows"
            assert calls["n"] == 0, "report rendering must not simulate"
            assert Graph.construction_count == before, (
                "report rendering must resolve keys from the manifest, "
                "not rebuild graphs"
            )

    def test_warm_rerender_is_fast(self, warmed):
        with StoreService(warmed, port=0) as service:
            url = self.report_url(service, "fig1a-star")
            http_get(url)  # first render populates the server-side cache
            best = min(
                self._timed_get(url) for _ in range(3)
            )
            assert best < 0.05, f"warm report took {best * 1000:.1f}ms (>= 50ms)"

    @staticmethod
    def _timed_get(url):
        start = time.perf_counter()
        status, _, _ = http_get(url)
        assert status == 200
        return time.perf_counter() - start

    def test_revalidation_is_a_304_with_an_empty_body(self, warmed):
        with StoreService(warmed, port=0) as service:
            url = self.report_url(service, "fig1a-star")
            status, _, headers = http_get(url)
            assert status == 200
            etag = headers["ETag"]
            status, body, headers = http_get(url, headers={"If-None-Match": etag})
            assert status == 304
            assert body == b""
            assert headers["ETag"] == etag

    def test_html_report_is_bit_identical_across_requests(self, warmed):
        with StoreService(warmed, port=0) as service:
            url = self.report_url(service, "fig1a-star", suffix="")
            status, first, headers = http_get(url)
            assert status == 200
            assert headers["Content-Type"].startswith("text/html")
            status, second, _ = http_get(url)
            assert status == 200
            assert first == second

    def test_etag_changes_when_the_cell_set_changes(self, warmed):
        config = get_experiment("fig1a-star")
        with StoreService(warmed, port=0) as service:
            url = self.report_url(service, "fig1a-star")
            _, _, headers = http_get(url)
            etag = headers["ETag"]
            # A new cell in the report's set must change the fingerprint.
            run_experiment(
                config,
                base_seed=0,
                sizes=scaled_sizes(config.sizes, self.SCALE),
                trials=3,
                store=warmed,
            )
            status, _, headers = http_get(
                f"{service.url}/report/fig1a-star.json?scale={self.SCALE}&trials=3",
                headers={"If-None-Match": etag},
            )
            assert status == 200
            assert headers["ETag"] != etag

    def test_missing_sections_are_reported_not_fatal(self, warmed):
        with StoreService(warmed, port=0) as service:
            status, body, _ = http_get(
                f"{service.url}/report/all?scale={self.SCALE}&trials=2"
                "&only=fig1a-star,fig1b-double-star"
            )
            assert status == 200
            payload_by_id = {
                s["id"]: s for s in json.loads(
                    http_get(
                        f"{service.url}/report/all.json?scale={self.SCALE}&trials=2"
                        "&only=fig1a-star,fig1b-double-star"
                    )[1]
                )["sections"]
            }
            assert payload_by_id["fig1a-star"]["status"] == "complete"
            assert payload_by_id["fig1b-double-star"]["status"] == "missing"
            assert "run the sweep" in payload_by_id["fig1b-double-star"]["detail"]

    def test_unknown_section_is_404_and_bad_filter_is_400(self, warmed):
        with StoreService(warmed, port=0) as service:
            status, _, _ = http_get(f"{service.url}/report/no-such-section.json")
            assert status == 404
            status, _, _ = http_get(f"{service.url}/report/all.json?only=bogus")
            assert status == 400
            status, _, _ = http_get(f"{service.url}/report/all.json?scale=wide")
            assert status == 400

    def test_retired_backend_names_are_400(self, warmed):
        # Every cell is computed batched; a request naming another execution
        # path must not be answered with batched cells.
        with StoreService(warmed, port=0) as service:
            for backend in ("compiled", "sequential"):
                url = f"{service.url}/report/fig1a-star.json?scale={self.SCALE}&trials=2"
                status, _, _ = http_get(f"{url}&backend={backend}")
                assert status == 400
            status, _, _ = http_get(f"{url}&backend=auto")
            assert status == 200


class TestReportingFunctions:
    def test_fingerprint_tracks_presence_of_cells(self, tmp_path):
        config = get_experiment("fig1a-star")
        store = ResultStore(tmp_path / "store")
        sizes = scaled_sizes(config.sizes, 0.05)
        cold = report_fingerprint(store, sections=["fig1a-star"], scale=0.05, trials=2)
        run_experiment(config, base_seed=0, sizes=sizes, trials=2, store=store)
        warm = report_fingerprint(store, sections=["fig1a-star"], scale=0.05, trials=2)
        assert cold != warm
        assert warm == report_fingerprint(store, sections=["fig1a-star"], scale=0.05, trials=2)

    def test_html_renderer_is_deterministic_and_escaped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        payload = store_report_payload(store, sections=["fig1a-star"], scale=0.05, trials=2)
        assert payload["complete"] is False
        html = render_report_html(payload)
        assert html == render_report_html(payload)
        assert "<script>" not in html
        assert "status-missing" in html


class TestRemoteConditionalGet:
    def test_remote_entries_revalidate_with_304(self, tmp_path):
        store = ResultStore(tmp_path / "served")
        run_experiment(TOY_CONFIG, base_seed=2, store=store)
        with StoreService(store, port=0) as service:
            backend = RemoteBackend(service.url, cache=tmp_path / "cache")
            first = backend.remote_entries()
            assert first
            # Plant a sentinel body behind the memoized validator: if the
            # server answers 304 the sentinel surfaces, proving no bytes
            # were re-downloaded.
            memo_key = next(iter(backend._conditional_memo))
            etag, _ = backend._conditional_memo[memo_key]
            sentinel = json.dumps({"entries": [{"key": "sentinel"}]}).encode("utf-8")
            backend._conditional_memo[memo_key] = (etag, sentinel)
            assert [e["key"] for e in backend.remote_entries()] == ["sentinel"]

    def test_changed_listing_replaces_the_memo(self, tmp_path):
        from repro.experiments.runner import run_trial_set

        store = ResultStore(tmp_path / "served")
        run_experiment(TOY_CONFIG, base_seed=2, store=store)
        with StoreService(store, port=0) as service:
            backend = RemoteBackend(service.url, cache=tmp_path / "cache")
            first = backend.remote_entries()
            case = GraphCase(graph=star(30), source=0, size_parameter=30)
            run_trial_set(ProtocolSpec("push"), case, trials=2, base_seed=9, store=store)
            second = backend.remote_entries()
            assert len(second) == len(first) + 1

    def test_sweep_journal_revalidates(self, tmp_path):
        store = ResultStore(tmp_path / "served")
        run_experiment(TOY_CONFIG, base_seed=2, store=store)
        sweep_id = store.backend.local.list_sweeps()[0]
        with StoreService(store, port=0) as service:
            backend = RemoteBackend(service.url, cache=tmp_path / "cache")
            text = backend.read_sweep_text(sweep_id)
            assert text is not None
            assert backend.read_sweep_text(sweep_id) == text
            assert backend._conditional_memo
