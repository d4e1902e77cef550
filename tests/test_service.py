"""Tests for the HTTP store service and the remote store backend.

The shared-store contract extends the local one across a network hop: a
sweep against a pre-warmed served store must execute zero simulation cells
and reproduce the local-store results bit for bit, every object must cross
the network at most once (read-through cache), and a corrupted or truncated
transfer must fail loudly without poisoning the cache.  The service itself
must stay consistent while a writer persists into the root it serves.
"""

from __future__ import annotations

import json
import pickle
import threading
import urllib.error
import urllib.request

import pytest

from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec
from repro.experiments.reporting import result_from_store
from repro.experiments.runner import run_experiment, run_trial_set
from repro.graphs import complete_graph, star
from repro.store import (
    LocalBackend,
    RemoteBackend,
    ResultStore,
    StoreCorruptionError,
    StoreError,
    StoreService,
    resolve_backend,
    resolve_store,
)
from repro.store.backends import decode_object_frame, encode_object_frame


def star_case(size=30):
    return GraphCase(graph=star(size), source=0, size_parameter=size)


def complete_builder(size, seed):
    return GraphCase(graph=complete_graph(size), source=0, size_parameter=size)


TOY_CONFIG = ExperimentConfig(
    experiment_id="toy-service",
    title="Toy service experiment",
    paper_reference="none",
    description="fast experiment used by the service tests",
    graph_builder=complete_builder,
    sizes=(8, 16),
    protocols=(ProtocolSpec("push"), ProtocolSpec("pull")),
    trials=3,
)


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


def http_get(url):
    """(status, bytes) of a GET, treating HTTP errors as responses."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@pytest.fixture
def served(tmp_path):
    """A local store pre-warmed with one toy sweep."""
    store = ResultStore(tmp_path / "served")
    run_experiment(TOY_CONFIG, base_seed=6, store=store)
    return store


@pytest.fixture
def service(served):
    with StoreService(served, port=0) as svc:
        yield svc


@pytest.fixture
def remote(service, tmp_path):
    """A remote store over the service with a fresh read-through cache."""
    return ResultStore(service.url, cache=tmp_path / "cache")


class TestObjectFrame:
    """The wire frame of ``PUT /cells/<key>`` and ``GET /cells/<key>/object``."""

    def test_round_trip_keeps_both_halves_verbatim(self):
        for npz, sidecar in [(b"payload", b"{}"), (b"", b"{}"), (b"\x00" * 3, b"")]:
            assert decode_object_frame(encode_object_frame(npz, sidecar)) == (npz, sidecar)

    def test_wrong_magic_is_rejected(self):
        frame = encode_object_frame(b"payload", b"{}")
        with pytest.raises(ValueError, match="magic"):
            decode_object_frame(b"X" + frame[1:])

    def test_truncated_length_header_is_rejected(self):
        frame = encode_object_frame(b"payload", b"{}")
        with pytest.raises(ValueError, match="header"):
            decode_object_frame(frame[: len(frame) - len(b"payload{}") - 1])

    def test_short_body_is_rejected(self):
        frame = encode_object_frame(b"payload", b"{}")
        with pytest.raises(ValueError, match="length mismatch"):
            decode_object_frame(frame[:-1])

    def test_trailing_bytes_are_rejected(self):
        frame = encode_object_frame(b"payload", b"{}")
        with pytest.raises(ValueError, match="length mismatch"):
            decode_object_frame(frame + b"x")


class TestServiceEndpoints:
    def test_healthz_reports_store_summary(self, service, served):
        status, body = http_get(service.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["objects"] == len(list(served.keys()))
        assert payload["format"] == 1

    def test_sidecar_and_object_served_verbatim(self, service, served):
        key = next(served.keys())
        npz_path, sidecar_path = served.object_paths(key)
        status, sidecar = http_get(f"{service.url}/cells/{key}")
        assert (status, sidecar) == (200, sidecar_path.read_bytes())
        # The object route frames both halves, as a publish does.
        status, frame = http_get(f"{service.url}/cells/{key}/object")
        assert status == 200
        assert decode_object_frame(frame) == (npz_path.read_bytes(), sidecar_path.read_bytes())

    def test_lost_payload_is_framed_empty(self, service, served):
        # The sidecar still commits the object, so the route answers; the
        # empty payload cannot match the sidecar's checksum.
        key = next(served.keys())
        npz_path, sidecar_path = served.object_paths(key)
        npz_path.unlink()
        status, frame = http_get(f"{service.url}/cells/{key}/object")
        assert status == 200
        assert decode_object_frame(frame) == (b"", sidecar_path.read_bytes())

    def test_missing_key_is_404(self, service):
        status, _body = http_get(f"{service.url}/cells/{'0' * 64}")
        assert status == 404
        status, _body = http_get(f"{service.url}/cells/{'0' * 64}/object")
        assert status == 404

    def test_malformed_key_is_400(self, service):
        status, _body = http_get(f"{service.url}/cells/not-a-key")
        assert status == 400

    def test_malformed_sweep_id_is_400(self, service):
        for route in ("/sweeps/..%2Fx", "/sweeps/..%2Fx/status", "/sweeps/a.b"):
            status, _body = http_get(service.url + route)
            assert status == 400

    def test_uncommitted_object_is_invisible(self, service, served):
        # An NPZ whose sidecar never landed is not committed; the service
        # must not serve the payload half of it.
        orphan = "e" * 64
        npz_path, _ = served.object_paths(orphan)
        npz_path.parent.mkdir(parents=True, exist_ok=True)
        npz_path.write_bytes(b"uncommitted payload")
        status, _body = http_get(f"{service.url}/cells/{orphan}/object")
        assert status == 404

    def test_ls_filters_by_prefix_and_proto(self, service, served):
        entries = served.entries()
        key = entries[0]["key"]
        status, body = http_get(f"{service.url}/ls")
        assert status == 200
        assert json.loads(body)["count"] == len(entries)
        _status, body = http_get(f"{service.url}/ls?prefix={key[:8]}")
        filtered = json.loads(body)["entries"]
        assert [e["key"] for e in filtered] == [key]
        _status, body = http_get(f"{service.url}/ls?proto=push")
        assert {e["protocol"] for e in json.loads(body)["entries"]} == {"push"}

    def test_sweep_journal_served_verbatim(self, service, served):
        journal = next(served.sweeps_dir.glob("*.jsonl"))
        status, body = http_get(f"{service.url}/sweeps/{journal.stem}")
        assert (status, body) == (200, journal.read_bytes())
        status, _body = http_get(f"{service.url}/sweeps/{'0' * 16}")
        assert status == 404

    def test_sweeps_listing(self, service, served):
        status, body = http_get(f"{service.url}/sweeps")
        assert status == 200
        listed = json.loads(body)["sweeps"]
        assert listed == sorted(p.stem for p in served.sweeps_dir.glob("*.jsonl"))

    def test_unknown_route_is_404(self, service):
        status, _body = http_get(f"{service.url}/objects")
        assert status == 404

    def test_writes_are_405(self, service, served):
        key = next(served.keys())
        request = urllib.request.Request(
            f"{service.url}/cells/{key}", data=b"payload", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405

    def test_only_local_roots_can_be_served(self, service):
        with pytest.raises(StoreError):
            StoreService(ResultStore(service.url))


class TestRemoteBackend:
    def test_round_trip_is_bit_identical(self, served, remote):
        for key in served.keys():
            assert remote.get_trial_set(key) == served.get_trial_set(key)

    def test_each_object_fetched_at_most_once(self, service, served, remote):
        keys = list(served.keys())
        for key in keys:
            remote.get_trial_set(key)
        counts = service.request_counts
        assert counts["/cells/*/object"] == len(keys)
        for key in keys:  # warm: served from the read-through cache
            remote.get_trial_set(key)
        assert service.request_counts["/cells/*/object"] == len(keys)

    def test_missing_key_is_a_miss_not_an_error(self, remote):
        assert remote.get_trial_set("0" * 64) is None

    def test_truncated_transfer_fails_loudly_and_is_not_cached(self, service, served, tmp_path):
        key = next(served.keys())
        npz_path, _ = served.object_paths(key)
        npz_path.write_bytes(npz_path.read_bytes()[:64])  # truncate in place
        fresh = ResultStore(service.url, cache=tmp_path / "fresh-cache")
        with pytest.raises(StoreCorruptionError):
            fresh.get_trial_set(key)
        # The poisoned bytes never reached the cache: no committed object.
        assert list(fresh.backend.local.list_keys()) == []

    def test_lost_payload_fails_loudly_and_is_not_cached(self, service, served, tmp_path):
        # A committed sidecar whose NPZ is gone is corruption, not a miss.
        key = next(served.keys())
        npz_path, _ = served.object_paths(key)
        npz_path.unlink()
        fresh = ResultStore(service.url, cache=tmp_path / "fresh-cache")
        with pytest.raises(StoreCorruptionError):
            fresh.get_trial_set(key)
        assert list(fresh.backend.local.list_keys()) == []

    def test_cold_read_is_one_object_request_and_warm_read_none(self, service, served, remote):
        key = next(served.keys())
        before = service.request_counts
        remote.get_trial_set(key)
        cold = service.request_counts
        grown = {route: n - before.get(route, 0) for route, n in cold.items()}
        assert {route: n for route, n in grown.items() if n} == {"/cells/*/object": 1}
        remote.get_trial_set(key)
        assert service.request_counts == cold

    def test_payload_read_also_caches_the_sidecar(self, service, served, remote):
        key = next(served.keys())
        npz_path, sidecar_path = served.object_paths(key)
        backend = remote.backend
        assert backend.read_npz_bytes(key) == npz_path.read_bytes()
        counts = service.request_counts
        assert backend.read_sidecar_bytes(key) == sidecar_path.read_bytes()
        assert service.request_counts == counts

    def test_sidecar_read_also_caches_the_payload(self, service, served, remote):
        key = next(served.keys())
        npz_path, sidecar_path = served.object_paths(key)
        backend = remote.backend
        assert backend.read_sidecar_bytes(key) == sidecar_path.read_bytes()
        counts = service.request_counts
        assert backend.read_npz_bytes(key) == npz_path.read_bytes()
        assert service.request_counts == counts

    def test_missing_key_costs_one_object_request(self, service, remote):
        before = service.request_counts
        assert remote.get_trial_set("0" * 64) is None
        grown = {
            route: n - before.get(route, 0)
            for route, n in service.request_counts.items()
            if n != before.get(route, 0)
        }
        assert grown == {"/cells/*/object": 1}

    def test_cached_bytes_equal_served_bytes(self, served, remote):
        for key in served.keys():
            remote.get_trial_set(key)
            npz_path, sidecar_path = served.object_paths(key)
            cache = remote.backend.cache
            assert cache.read_npz_bytes(key) == npz_path.read_bytes()
            assert cache.read_sidecar_bytes(key) == sidecar_path.read_bytes()

    def test_frame_truncated_in_transit_fails_loudly_and_is_not_cached(
        self, served, remote, monkeypatch
    ):
        key = next(served.keys())
        backend = remote.backend
        real_get = type(backend)._get

        def short_get(self, path, *args, **kwargs):
            body = real_get(self, path, *args, **kwargs)
            return body[:-1] if path.endswith("/object") and body else body

        monkeypatch.setattr(type(backend), "_get", short_get)
        with pytest.raises(StoreCorruptionError, match="length mismatch"):
            remote.get_trial_set(key)
        assert list(backend.local.list_keys()) == []

    def test_computed_cells_land_in_the_cache(self, service, remote, monkeypatch):
        calls = count_batches(monkeypatch)
        spec = ProtocolSpec("push")
        first = run_trial_set(spec, star_case(), trials=2, base_seed=123, store=remote)
        assert calls["n"] == 1
        objects_before = service.request_counts.get("/cells/*/object", 0)
        second = run_trial_set(spec, star_case(), trials=2, base_seed=123, store=remote)
        assert calls["n"] == 1  # cache hit, no recompute
        assert second == first
        # ... and the hit never touched the network's object endpoint.
        assert service.request_counts.get("/cells/*/object", 0) == objects_before

    def test_remote_ls_merges_server_and_cache(self, served, remote):
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=123, store=remote)
        keys = set(remote.backend.list_keys())
        assert set(served.keys()) < keys  # server keys plus the local cell
        entries = {row["key"]: row for row in remote.entries()}
        assert keys == set(entries)
        assert all(row["bytes"] > 0 for row in entries.values())

    def test_remote_entries_issue_one_ls_call(self, service, remote):
        before = service.request_counts.get("/ls", 0)
        remote.entries()
        assert service.request_counts.get("/ls", 0) == before + 1

    def test_backend_pickles_without_live_state(self, remote):
        clone = pickle.loads(pickle.dumps(remote.backend))
        assert clone == remote.backend

    def test_unreachable_service_raises_store_error(self, tmp_path):
        dead = ResultStore("http://127.0.0.1:9", cache=tmp_path / "cache")
        with pytest.raises(StoreError):
            dead.get_trial_set("0" * 64)

    def test_resolve_backend_maps_urls_and_paths(self, tmp_path):
        assert isinstance(resolve_backend(tmp_path / "s"), LocalBackend)
        backend = resolve_backend("http://example.invalid:1", cache=tmp_path / "c")
        assert isinstance(backend, RemoteBackend)
        assert backend.cache.root == tmp_path / "c"

    def test_cache_env_var_places_the_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_CACHE", str(tmp_path / "env-cache"))
        backend = resolve_backend("http://example.invalid:1")
        assert backend.cache.root == tmp_path / "env-cache"


class TestAcceptance:
    """The PR's acceptance criterion, as one test per clause."""

    def test_warm_served_sweep_runs_zero_cells_and_matches_local(
        self, service, served, tmp_path, monkeypatch
    ):
        local = run_experiment(TOY_CONFIG, base_seed=6, store=served)
        monkeypatch.setenv("REPRO_STORE", service.url)
        monkeypatch.setenv("REPRO_STORE_CACHE", str(tmp_path / "env-cache"))
        calls = count_batches(monkeypatch)
        env_store = resolve_store(None)
        assert isinstance(env_store.backend, RemoteBackend)

        warm = run_experiment(TOY_CONFIG, base_seed=6)  # store from $REPRO_STORE
        assert calls["n"] == 0  # zero simulation cells against the warm store
        assert [c.trials for c in warm.cells] == [c.trials for c in local.cells]
        assert warm.table_rows() == local.table_rows()

        object_fetches = service.request_counts["/cells/*/object"]
        assert object_fetches == len(local.cells)
        rerun = run_experiment(TOY_CONFIG, base_seed=6)
        assert calls["n"] == 0
        assert [c.trials for c in rerun.cells] == [c.trials for c in local.cells]
        # Second run is served purely by the read-through cache.
        assert service.request_counts["/cells/*/object"] == object_fetches

    def test_reporting_pulls_from_the_service(self, service, tmp_path, monkeypatch):
        calls = count_batches(monkeypatch)
        remote = ResultStore(service.url, cache=tmp_path / "report-cache")
        loaded = result_from_store(TOY_CONFIG, remote, base_seed=6)
        assert calls["n"] == 0
        assert len(loaded.cells) == len(TOY_CONFIG.sizes) * len(TOY_CONFIG.protocols)

    def test_resumed_sweep_journal_merges_server_and_local_history(self, served, remote):
        # Rerunning the server's sweep through the remote store journals the
        # new run locally; the journal view must keep the server's history
        # too (gc pins are the union of both).
        run_experiment(TOY_CONFIG, base_seed=6, store=remote)
        sweep = next(served.sweeps_dir.glob("*.jsonl")).stem
        merged = remote.backend.read_sweep_text(sweep)
        server_text = served.backend.read_sweep_text(sweep)
        local_text = remote.backend.local.read_sweep_text(sweep)
        assert merged == server_text + local_text

    def test_export_from_remote_carries_journals(self, served, remote, tmp_path):
        # Exported cells must keep their gc pins: the server's sweep
        # journals travel with the objects, so a routine gc on the seeded
        # destination deletes nothing.
        destination = ResultStore(tmp_path / "seeded")
        copied = remote.export(destination.root)
        assert copied == len(list(served.keys()))
        assert sorted(p.name for p in destination.sweeps_dir.glob("*.jsonl")) == sorted(
            p.name for p in served.sweeps_dir.glob("*.jsonl")
        )
        assert destination.gc() == []
        assert len(list(destination.keys())) == copied


class TestConcurrency:
    def test_two_threads_share_one_read_through_cache(self, service, served, tmp_path):
        remote = ResultStore(service.url, cache=tmp_path / "shared-cache")
        keys = list(served.keys())
        expected = {key: served.get_trial_set(key) for key in keys}
        failures = []

        def reader():
            try:
                for key in keys:
                    if remote.get_trial_set(key) != expected[key]:
                        failures.append(f"mismatch for {key}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        # Both threads drained through one cache; every cached object is
        # complete and verifiable (no torn writes from the racing fills).
        cached = ResultStore(remote.backend.local)
        assert set(cached.backend.list_keys()) == set(keys)
        for key in keys:
            assert cached.get_trial_set(key) == expected[key]

    def test_writer_persisting_while_the_service_serves(self, tmp_path):
        store = ResultStore(tmp_path / "live")
        run_trial_set(ProtocolSpec("push"), star_case(), trials=1, base_seed=0, store=store)
        seeds = list(range(1, 9))
        done = threading.Event()
        write_errors = []

        def writer():
            try:
                for seed in seeds:
                    run_trial_set(
                        ProtocolSpec("push"),
                        star_case(),
                        trials=1,
                        base_seed=seed,
                        store=store,
                    )
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                write_errors.append(repr(exc))
            finally:
                done.set()

        with StoreService(store, port=0) as svc:
            thread = threading.Thread(target=writer)
            thread.start()
            seen = set()
            while not done.is_set() or len(seen) < len(seeds) + 1:
                _status, body = http_get(svc.url + "/ls")
                listing = json.loads(body)  # parses even mid-write
                now = {row["key"] for row in listing["entries"]}
                assert seen <= now  # committed objects never flicker out
                seen = now
                # Every listed sidecar is complete and consistent: the
                # commit-marker ordering means no torn sidecar is ever
                # visible, even while the writer races us.
                for key in now:
                    status, sidecar = http_get(f"{svc.url}/cells/{key}")
                    assert status == 200
                    payload = json.loads(sidecar)
                    assert payload["key"] == key
                    assert len(payload["npz_sha256"]) == 64
                if done.is_set() and len(seen) < len(seeds) + 1:
                    break
            thread.join()
            assert write_errors == []
            _status, body = http_get(svc.url + "/ls")
            assert json.loads(body)["count"] == len(seeds) + 1
