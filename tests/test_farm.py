"""Tests for the fault-tolerant sweep farm.

The farm's contract: a registry sweep split across any number of crashing
workers, through a network that drops, truncates, delays and 500s, must
converge to exactly the objects a serial local run would produce — bit for
bit — with every duplicate simulation accounted for by a legitimately
expired lease.  These tests drive each layer (lease state machine, write
path, hardened client, worker loop) alone and then the whole stack through
the fault-injecting proxy.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec
from repro.experiments.coupling_experiment import run_coupling_experiment
from repro.experiments.fairness_experiment import run_fairness_experiment
from repro.experiments.reporting import (
    coupling_result_from_store,
    fairness_result_from_store,
    result_from_store,
)
from repro.experiments.runner import run_experiment
from repro.graphs import complete_graph
from repro.store import (
    FarmError,
    RemoteBackend,
    ResultStore,
    StoreConflictError,
    StoreError,
    StoreService,
    StoreUnavailableError,
    SweepFarm,
    UnknownLeaseError,
    resolve_sweep_plans,
)
from repro.store.backends import encode_object_frame
from repro.store.faultproxy import FaultProxy, FaultSpec
from repro.store.worker import run_worker, submit_sweep, sweep_status

TOKEN = "farm-test-token"


def complete_builder(size, seed):
    return GraphCase(graph=complete_graph(size), source=0, size_parameter=size)


FARM_CONFIG = ExperimentConfig(
    experiment_id="toy-farm",
    title="Toy farm experiment",
    paper_reference="none",
    description="fast experiment used by the farm tests",
    graph_builder=complete_builder,
    sizes=(8, 12, 16),
    protocols=(ProtocolSpec("push"), ProtocolSpec("pull")),
    trials=3,
)


def farm_resolver(experiment_id):
    assert experiment_id == FARM_CONFIG.experiment_id
    return FARM_CONFIG


def farm_plan_keys(base_seed):
    plans = resolve_sweep_plans(
        FARM_CONFIG, base_seed=base_seed, sizes=FARM_CONFIG.sizes, trials=FARM_CONFIG.trials
    )
    return [p.plan.key for p in plans]


@pytest.fixture
def hub(tmp_path):
    """A writable (token-authenticated) hub over a fresh store root."""
    store = ResultStore(tmp_path / "hub")
    with StoreService(store, port=0, token=TOKEN, lease_ttl=2.0) as svc:
        yield svc


def http_request(url, *, method="GET", data=None, headers=None):
    """(status, body) treating HTTP error statuses as responses."""
    request = urllib.request.Request(url, data=data, headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


# ----------------------------------------------------------------------
# the authenticated write path (PUT /cells/<key>)
# ----------------------------------------------------------------------
class TestPublish:
    def publisher(self, hub, tmp_path, name="pub"):
        return RemoteBackend(hub.url, token=TOKEN, publish=True, cache=tmp_path / name)

    def warm_object(self, hub, tmp_path):
        """Publish one real cell through the write path; returns its key."""
        backend = self.publisher(hub, tmp_path)
        store = ResultStore(backend=backend)
        run_experiment(FARM_CONFIG, base_seed=11, sizes=(8,), trials=2, store=store)
        key = next(iter(backend.local.list_keys()))
        return key, backend

    def test_publish_lands_on_the_hub_and_reads_back_bit_identical(self, hub, tmp_path):
        key, backend = self.warm_object(hub, tmp_path)
        assert hub.store.backend.read_sidecar_bytes(key) is not None
        fresh = ResultStore(hub.url, cache=tmp_path / "fresh")
        assert fresh.get_trial_set(key) == ResultStore(backend=backend).get_trial_set(key)

    def test_replayed_publish_is_idempotent(self, hub, tmp_path):
        key, backend = self.warm_object(hub, tmp_path)
        npz = backend.local.read_npz_bytes(key)
        sidecar = backend.local.read_sidecar_bytes(key)
        backend.publish_object(key, npz, sidecar)  # replay: 200 "exists"
        assert hub.store.backend.read_npz_bytes(key) == npz

    def test_conflicting_publish_is_rejected_loudly(self, hub, tmp_path):
        key, backend = self.warm_object(hub, tmp_path)
        sidecar = backend.local.read_sidecar_bytes(key)
        with pytest.raises((StoreConflictError, StoreError)):
            backend.publish_object(key, b"different bytes", sidecar)
        # The committed object is untouched.
        assert hub.store.backend.read_npz_bytes(key) == backend.local.read_npz_bytes(key)

    def test_unauthenticated_put_is_401(self, hub, tmp_path):
        key, backend = self.warm_object(hub, tmp_path)
        body = encode_object_frame(
            backend.local.read_npz_bytes(key), backend.local.read_sidecar_bytes(key)
        )
        status, _ = http_request(f"{hub.url}/cells/{key}", method="PUT", data=body)
        assert status == 401
        status, _ = http_request(
            f"{hub.url}/cells/{key}",
            method="PUT",
            data=body,
            headers={"Authorization": "Bearer wrong-token"},
        )
        assert status == 401

    def test_truncated_frame_is_rejected_structurally(self, hub, tmp_path):
        key, backend = self.warm_object(hub, tmp_path)
        # Delete the committed object so the 400 is about the frame, not a
        # conflict, then replay a torn upload.
        hub.store.backend.delete_object(key)
        body = encode_object_frame(
            backend.local.read_npz_bytes(key), backend.local.read_sidecar_bytes(key)
        )
        status, reply = http_request(
            f"{hub.url}/cells/{key}",
            method="PUT",
            data=body[:-3],
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 400
        assert b"frame" in reply or b"length" in reply
        assert hub.store.backend.read_sidecar_bytes(key) is None  # nothing committed

    def test_corrupted_payload_is_rejected_by_the_checksum(self, hub, tmp_path):
        key, backend = self.warm_object(hub, tmp_path)
        hub.store.backend.delete_object(key)
        npz = bytearray(backend.local.read_npz_bytes(key))
        npz[len(npz) // 2] ^= 0xFF
        body = encode_object_frame(bytes(npz), backend.local.read_sidecar_bytes(key))
        status, reply = http_request(
            f"{hub.url}/cells/{key}",
            method="PUT",
            data=body,
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 400
        assert b"checksum" in reply
        assert hub.store.backend.read_sidecar_bytes(key) is None

    def test_tokenless_service_keeps_every_write_405(self, tmp_path):
        store = ResultStore(tmp_path / "ro")
        with StoreService(store, port=0) as svc:
            status, _ = http_request(
                f"{svc.url}/cells/{'0' * 64}",
                method="PUT",
                data=b"x",
                headers={"Authorization": f"Bearer {TOKEN}"},
            )
            assert status == 405
            status, _ = http_request(
                f"{svc.url}/sweeps/submit",
                method="POST",
                data=b"{}",
                headers={"Authorization": f"Bearer {TOKEN}"},
            )
            assert status == 405

    def test_healthz_reports_writability(self, hub, tmp_path):
        store = ResultStore(hub.url, cache=tmp_path / "hc")
        assert store.backend.healthz()["writable"] is True
        with StoreService(ResultStore(tmp_path / "ro"), port=0) as svc:
            read_only = ResultStore(svc.url, cache=tmp_path / "hc2")
            assert read_only.backend.healthz()["writable"] is False


# ----------------------------------------------------------------------
# the lease state machine (no HTTP)
# ----------------------------------------------------------------------
class TestLeaseSemantics:
    def make_farm(self, tmp_path, *, cells=3, lease_ttl=60.0):
        store = ResultStore(tmp_path / "farm")
        farm = SweepFarm(store, lease_ttl=lease_ttl)
        payload = {"experiment_id": "lease-test", "base_seed": 0}
        manifest = [
            {"index": i, "size": 8 * (i + 1), "protocol": "push", "key": f"{i:x}" * 64}
            for i in range(cells)
        ]
        status = farm.submit(payload, manifest)
        return store, farm, status["sweep"], [row["key"] for row in manifest]

    def commit(self, store, key):
        store.backend.local.write_object(key, b"npz-bytes", b"{}")

    def test_grants_follow_manifest_order(self, tmp_path):
        _, farm, sid, keys = self.make_farm(tmp_path)
        granted = [farm.lease(sid, "w")["key"] for _ in keys]
        assert granted == keys
        assert farm.lease(sid, "w") is None  # everything leased: poll again

    def test_submit_is_idempotent_and_conflicts_loudly(self, tmp_path):
        _, farm, sid, keys = self.make_farm(tmp_path)
        payload = {"experiment_id": "lease-test", "base_seed": 0}
        manifest = [
            {"index": i, "size": 8 * (i + 1), "protocol": "push", "key": key}
            for i, key in enumerate(keys)
        ]
        again = farm.submit(payload, manifest)
        assert again["sweep"] == sid and again["cells"] == len(keys)
        manifest[0]["key"] = "f" * 64
        with pytest.raises(FarmError):
            farm.submit(payload, manifest)
        assert farm.status(sid)["stats"]["conflicts"] == 1

    def test_expired_lease_is_regranted(self, tmp_path):
        store, farm, sid, keys = self.make_farm(tmp_path, cells=1, lease_ttl=0.15)
        first = farm.lease(sid, "crashed-worker")
        assert first["key"] == keys[0]
        time.sleep(0.3)
        second = farm.lease(sid, "survivor")
        assert second is not None and second["key"] == keys[0]
        stats = farm.status(sid)["stats"]
        assert stats["expired"] == 1 and stats["granted"] == 2

    def test_heartbeat_keeps_a_lease_alive_past_its_ttl(self, tmp_path):
        store, farm, sid, keys = self.make_farm(tmp_path, cells=1, lease_ttl=0.25)
        grant = farm.lease(sid, "steady")
        for _ in range(5):  # 0.5s of renewals, twice the raw TTL
            time.sleep(0.1)
            farm.heartbeat(sid, grant["lease"])
        assert farm.status(sid)["stats"]["expired"] == 0
        time.sleep(0.4)  # renewals stop: now it expires
        with pytest.raises(UnknownLeaseError):
            farm.heartbeat(sid, grant["lease"])
        assert farm.status(sid)["stats"]["expired"] == 1

    def test_complete_requires_a_committed_object(self, tmp_path):
        store, farm, sid, keys = self.make_farm(tmp_path, cells=1)
        grant = farm.lease(sid, "w")
        with pytest.raises(FarmError):
            farm.complete(sid, grant["lease"], key=keys[0])
        self.commit(store, keys[0])
        status = farm.complete(sid, grant["lease"], key=keys[0], worker="w")
        assert status["done"] == 1 and status["stats"]["completes"] == 1

    def test_double_complete_is_idempotent_and_counted(self, tmp_path):
        store, farm, sid, keys = self.make_farm(tmp_path, cells=1)
        grant = farm.lease(sid, "w")
        self.commit(store, keys[0])
        farm.complete(sid, grant["lease"], key=keys[0])
        again = farm.complete(sid, grant["lease"], key=keys[0])  # retried POST
        assert again["done"] == 1
        assert again["stats"]["completes"] == 1
        assert again["stats"]["duplicate_completes"] == 1

    def test_late_complete_after_expiry_is_acknowledged(self, tmp_path):
        store, farm, sid, keys = self.make_farm(tmp_path, cells=1, lease_ttl=0.15)
        stale = farm.lease(sid, "slow")
        time.sleep(0.3)
        fresh = farm.lease(sid, "fast")  # re-granted
        self.commit(store, keys[0])
        farm.complete(sid, fresh["lease"], key=keys[0], worker="fast")
        # The slow worker finally reports in with its dead token.
        late = farm.complete(sid, stale["lease"], key=keys[0], worker="slow")
        assert late["done"] == 1 and late["stats"]["duplicate_completes"] == 1

    def test_complete_with_mismatched_key_fails_loudly(self, tmp_path):
        store, farm, sid, keys = self.make_farm(tmp_path, cells=2)
        grant = farm.lease(sid, "w")
        self.commit(store, keys[1])
        with pytest.raises(FarmError):
            farm.complete(sid, grant["lease"], key=keys[1])

    def test_fail_requeues_the_cell(self, tmp_path):
        _, farm, sid, keys = self.make_farm(tmp_path, cells=1)
        grant = farm.lease(sid, "w")
        farm.fail(sid, grant["lease"], reason="worker error")
        regrant = farm.lease(sid, "w2")
        assert regrant["key"] == keys[0]
        stats = farm.status(sid)["stats"]
        assert stats["failed"] == 1 and stats["granted"] == 2

    def test_hub_restart_recovers_from_journal_and_store(self, tmp_path):
        store, farm, sid, keys = self.make_farm(tmp_path, cells=3)
        grant = farm.lease(sid, "w")
        self.commit(store, keys[0])
        farm.complete(sid, grant["lease"], key=keys[0])
        # A new farm instance over the same root = a restarted hub.
        reborn = SweepFarm(store, lease_ttl=60.0)
        status = reborn.status(sid)
        assert status["done"] == 1 and status["pending"] == 2
        assert status["stats"]["recovered"] == 1  # re-derived from the store
        granted = [reborn.lease(sid, "w")["key"] for _ in range(2)]
        assert granted == keys[1:]

    def test_accounting_invariant_on_a_clean_run(self, tmp_path):
        store, farm, sid, keys = self.make_farm(tmp_path, cells=3)
        for key in keys:
            grant = farm.lease(sid, "w")
            self.commit(store, grant["key"])
            farm.complete(sid, grant["lease"], key=grant["key"])
        stats = farm.status(sid)["stats"]
        assert stats["granted"] - stats["expired"] - stats["failed"] == stats["completes"]
        assert stats["completes"] == len(keys) and stats["duplicate_completes"] == 0


# ----------------------------------------------------------------------
# the hardened remote client
# ----------------------------------------------------------------------
class TestRetryAndDegradation:
    def test_unreachable_hub_raises_a_summarized_error(self, tmp_path):
        backend = RemoteBackend(
            "http://127.0.0.1:9", cache=tmp_path / "c", retries=1, backoff=0.01
        )
        with pytest.raises(StoreUnavailableError) as excinfo:
            backend.healthz()
        message = str(excinfo.value)
        assert "http://127.0.0.1:9" in message
        assert "attempt" in message  # the retry summary, not a raw URLError

    def test_transient_500s_are_retried_until_the_hub_answers(self, hub, tmp_path):
        key, npz, sidecar = warm_hub_cell(hub, tmp_path)
        with FaultProxy(hub.url, spec=FaultSpec(error_rate=0.4, seed=5)) as proxy:
            flaky = ResultStore(
                RemoteBackend(proxy.url, cache=tmp_path / "flaky", retries=8, backoff=0.01)
            )
            # Health probes are not cached, so each one exercises the wire.
            for _ in range(10):
                assert flaky.backend.healthz()["writable"] is True
            assert flaky.get_trial_set(key) == hub.store.get_trial_set(key)
        assert proxy.stats["errors"] > 0  # the proxy did inject 500s

    def test_truncated_responses_are_detected_and_retried(self, hub, tmp_path):
        key, npz, sidecar = warm_hub_cell(hub, tmp_path)
        with FaultProxy(hub.url, spec=FaultSpec(truncate_rate=0.5, seed=7)) as proxy:
            flaky = ResultStore(
                RemoteBackend(proxy.url, cache=tmp_path / "flaky", retries=6, backoff=0.01)
            )
            assert flaky.get_trial_set(key) == hub.store.get_trial_set(key)
        assert proxy.stats["truncations"] > 0

    def test_dropped_connections_are_retried(self, hub, tmp_path):
        key, npz, sidecar = warm_hub_cell(hub, tmp_path)
        with FaultProxy(hub.url, spec=FaultSpec(drop_rate=0.5, seed=9)) as proxy:
            flaky = ResultStore(
                RemoteBackend(proxy.url, cache=tmp_path / "flaky", retries=6, backoff=0.01)
            )
            assert flaky.get_trial_set(key) == hub.store.get_trial_set(key)
        assert proxy.stats["drops"] > 0

    def test_reads_degrade_to_the_warm_cache_when_the_hub_dies(self, tmp_path):
        store = ResultStore(tmp_path / "hub2")
        run_experiment(FARM_CONFIG, base_seed=11, sizes=(8,), trials=2, store=store)
        key = next(store.keys())
        service = StoreService(store, port=0).start()
        backend = RemoteBackend(
            service.url, cache=tmp_path / "cache", retries=1, backoff=0.01, degrade=True
        )
        remote = ResultStore(backend=backend)
        expected = remote.get_trial_set(key)  # warm the read-through cache
        service.stop()
        # A warm key reads straight from the cache — no network, no drama.
        assert remote.get_trial_set(key) == expected
        # A cold key attempts the hub, warns once, and degrades to an
        # honest miss instead of crashing the read path.
        with pytest.warns(RuntimeWarning, match="degrading"):
            assert remote.get_trial_set("0" * 64) is None


def warm_hub_cell(hub, tmp_path):
    """Publish one real cell onto the hub; returns (key, npz, sidecar)."""
    backend = RemoteBackend(hub.url, token=TOKEN, publish=True, cache=tmp_path / "warmer")
    store = ResultStore(backend=backend)
    run_experiment(FARM_CONFIG, base_seed=11, sizes=(8,), trials=2, store=store)
    key = next(iter(backend.local.list_keys()))
    return key, backend.local.read_npz_bytes(key), backend.local.read_sidecar_bytes(key)


# ----------------------------------------------------------------------
# the worker loop over real HTTP
# ----------------------------------------------------------------------
class TestWorker:
    def test_single_worker_farms_a_sweep_bit_identical_to_local(self, hub, tmp_path):
        sid, _ = submit_sweep(
            hub.url, FARM_CONFIG, token=TOKEN, base_seed=7, cache=tmp_path / "submit"
        )
        summary = run_worker(
            hub.url,
            sid,
            token=TOKEN,
            cache=tmp_path / "w0",
            poll_interval=0.05,
            config_resolver=farm_resolver,
        )
        assert summary["computed"] == len(farm_plan_keys(7))
        local = ResultStore(tmp_path / "local")
        reference = run_experiment(FARM_CONFIG, base_seed=7, store=local)
        for key in farm_plan_keys(7):
            assert hub.store.get_trial_set(key) == local.get_trial_set(key)
        farmed = result_from_store(
            FARM_CONFIG, ResultStore(hub.url, cache=tmp_path / "read"), base_seed=7
        )
        assert farmed.table_rows() == reference.table_rows()

    @pytest.mark.parametrize("backend", ["compiled", "sequential"])
    def test_worker_rejects_a_retired_backend_manifest(self, hub, tmp_path, backend):
        # A sweep submitted for another execution path must fail loudly in
        # the worker instead of being farmed as batched cells.
        from repro.store import sweep_payload
        from repro.store.journal import sweep_id

        payload = sweep_payload(
            FARM_CONFIG, base_seed=7, sizes=FARM_CONFIG.sizes, trials=FARM_CONFIG.trials
        )
        payload["backend"] = backend
        plans = resolve_sweep_plans(
            FARM_CONFIG, base_seed=7, sizes=FARM_CONFIG.sizes, trials=FARM_CONFIG.trials
        )
        RemoteBackend(hub.url, token=TOKEN, publish=True, cache=tmp_path / "submit").post_json(
            "/sweeps/submit",
            {"sweep": payload, "cells": [p.manifest_entry() for p in plans]},
            idempotent=True,
        )
        with pytest.raises(StoreError, match=backend):
            run_worker(
                hub.url,
                sweep_id(payload),
                token=TOKEN,
                cache=tmp_path / "w0",
                poll_interval=0.05,
                config_resolver=farm_resolver,
            )

    def test_sweep_status_round_trips(self, hub, tmp_path):
        sid, status = submit_sweep(
            hub.url, FARM_CONFIG, token=TOKEN, base_seed=7, cache=tmp_path / "submit"
        )
        assert status["cells"] == len(farm_plan_keys(7))
        fetched = sweep_status(hub.url, sid, token=TOKEN, cache=tmp_path / "status")
        assert fetched["sweep"] == sid and fetched["pending"] == status["cells"]
        with pytest.raises(StoreError):
            sweep_status(hub.url, "0" * 16, token=TOKEN, cache=tmp_path / "status")

    def test_submitting_twice_farms_nothing_new(self, hub, tmp_path):
        sid1, _ = submit_sweep(
            hub.url, FARM_CONFIG, token=TOKEN, base_seed=7, cache=tmp_path / "s1"
        )
        sid2, again = submit_sweep(
            hub.url, FARM_CONFIG, token=TOKEN, base_seed=7, cache=tmp_path / "s2"
        )
        assert sid1 == sid2
        assert again["stats"]["granted"] == 0

    def test_warm_hub_farms_zero_cells(self, hub, tmp_path):
        sid, _ = submit_sweep(
            hub.url, FARM_CONFIG, token=TOKEN, base_seed=7, cache=tmp_path / "submit"
        )
        run_worker(
            hub.url,
            sid,
            token=TOKEN,
            cache=tmp_path / "w0",
            poll_interval=0.05,
            config_resolver=farm_resolver,
        )
        late = run_worker(
            hub.url,
            sid,
            token=TOKEN,
            cache=tmp_path / "w1",
            poll_interval=0.05,
            config_resolver=farm_resolver,
        )
        assert late["computed"] == 0  # every cell already done

    def test_worker_survives_a_hub_restart(self, tmp_path):
        root = tmp_path / "hub"
        service = StoreService(root, port=0, token=TOKEN, lease_ttl=2.0).start()
        port = service.server.server_address[1]
        sid, _ = submit_sweep(
            service.url, FARM_CONFIG, token=TOKEN, base_seed=7, cache=tmp_path / "submit"
        )
        partial = run_worker(
            service.url,
            sid,
            token=TOKEN,
            cache=tmp_path / "w0",
            poll_interval=0.05,
            config_resolver=farm_resolver,
            max_cells=2,
        )
        assert partial["computed"] == 2
        service.stop()
        # Same port, fresh process state: the farm must rebuild the queue
        # from the journal manifest plus the committed objects.
        reborn = StoreService(root, port=port, token=TOKEN, lease_ttl=2.0).start()
        try:
            rest = run_worker(
                reborn.url,
                sid,
                token=TOKEN,
                cache=tmp_path / "w1",
                poll_interval=0.05,
                config_resolver=farm_resolver,
            )
            keys = farm_plan_keys(7)
            assert partial["computed"] + rest["computed"] == len(keys)
            status = reborn.farm.status(sid)
            assert status["done"] == len(keys)
            assert status["stats"]["recovered"] == 2  # the pre-restart cells
        finally:
            reborn.stop()


# ----------------------------------------------------------------------
# kill -9 mid-cell: the lease expires and the sweep still converges
# ----------------------------------------------------------------------
KILL_WORKER_SCRIPT = """
import sys

from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec
from repro.graphs import complete_graph
from repro.store.worker import run_worker


def complete_builder(size, seed):
    return GraphCase(graph=complete_graph(size), source=0, size_parameter=size)


CONFIG = ExperimentConfig(
    experiment_id="toy-farm",
    title="Toy farm experiment",
    paper_reference="none",
    description="fast experiment used by the farm tests",
    graph_builder=complete_builder,
    sizes=(8, 12, 16),
    protocols=(ProtocolSpec("push"), ProtocolSpec("pull")),
    trials=3,
)

url, sid, cache, token = sys.argv[1:5]
print("worker starting", flush=True)
run_worker(url, sid, token=token, cache=cache, config_resolver=lambda eid: CONFIG)
"""


class TestKillMinusNine:
    def test_killed_worker_loses_only_its_lease(self, tmp_path):
        store = ResultStore(tmp_path / "hub")
        with StoreService(store, port=0, token=TOKEN, lease_ttl=1.0) as hub:
            sid, _ = submit_sweep(
                hub.url, FARM_CONFIG, token=TOKEN, base_seed=7, cache=tmp_path / "submit"
            )
            env = dict(os.environ)
            env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
            env["REPRO_WORKER_STALL_SECONDS"] = "60"  # hold the lease, compute nothing
            victim = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    KILL_WORKER_SCRIPT,
                    hub.url,
                    sid,
                    str(tmp_path / "victim-cache"),
                    TOKEN,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            try:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if hub.farm.status(sid)["leased"] >= 1:
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("worker subprocess never took a lease")
                victim.kill()  # SIGKILL: no cleanup, no farewell
                victim.wait(timeout=10)
            finally:
                if victim.poll() is None:
                    victim.kill()
            # A survivor drains the sweep; the dead worker's lease expires
            # and its cell is re-granted.
            summary = run_worker(
                hub.url,
                sid,
                token=TOKEN,
                cache=tmp_path / "survivor",
                poll_interval=0.05,
                config_resolver=farm_resolver,
            )
            keys = farm_plan_keys(7)
            assert summary["computed"] == len(keys)
            status = hub.farm.status(sid)
            assert status["done"] == len(keys)
            assert status["stats"]["expired"] >= 1  # the killed worker's lease
            for key in keys:
                assert store.get_trial_set(key) is not None


# ----------------------------------------------------------------------
# the acceptance run: crashing workers, flaky network, bit-identical sweep
# ----------------------------------------------------------------------
class TestFaultInjectedConvergence:
    def test_three_workers_through_a_flaky_network_converge(self, tmp_path, monkeypatch):
        # A failed request must not bench a worker for the full production
        # cooldown, or this test would spend its time sleeping.
        monkeypatch.setattr("repro.store.backends.remote._DOWN_COOLDOWN", 0.2)
        local = ResultStore(tmp_path / "serial")
        reference = run_experiment(FARM_CONFIG, base_seed=7, store=local)

        hub_store = ResultStore(tmp_path / "hub")
        spec = FaultSpec(
            error_rate=0.08,
            delay_rate=0.10,
            delay_seconds=0.01,
            drop_rate=0.08,
            truncate_rate=0.08,
            seed=1234,
        )
        results = {}

        def worker(index, url, sid):
            # A worker is stateless: restarting after a terminal outage error
            # is exactly what an operator (or systemd) would do.
            for _attempt in range(4):
                try:
                    results[index] = run_worker(
                        url,
                        sid,
                        token=TOKEN,
                        name=f"w{index}",
                        cache=tmp_path / f"w{index}",
                        poll_interval=0.05,
                        hub_patience=15.0,
                        config_resolver=farm_resolver,
                    )
                    return
                except StoreUnavailableError:
                    continue
                except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                    results[index] = exc
                    return
            results[index] = RuntimeError("worker exhausted its restarts")

        with StoreService(hub_store, port=0, token=TOKEN, lease_ttl=2.0) as hub:
            with FaultProxy(hub.url, spec=spec) as proxy:
                sid, _ = submit_sweep(
                    proxy.url, FARM_CONFIG, token=TOKEN, base_seed=7, cache=tmp_path / "submit"
                )
                threads = [
                    threading.Thread(target=worker, args=(i, proxy.url, sid)) for i in range(3)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = proxy.stats
            summaries = [results[i] for i in range(3)]
            assert all(isinstance(s, dict) for s in summaries), summaries
            status = hub.farm.status(sid)

        # Every failure mode actually fired at least once.
        assert stats["errors"] > 0 and stats["drops"] > 0
        assert stats["truncations"] > 0 and stats["delays"] > 0

        # Zero lost cells, bit-identical to the serial local run.
        keys = farm_plan_keys(7)
        assert status["done"] == len(keys) and status["pending"] == 0
        for key in keys:
            assert hub_store.get_trial_set(key) == local.get_trial_set(key)
        farmed = result_from_store(FARM_CONFIG, hub_store, base_seed=7)
        assert farmed.table_rows() == reference.table_rows()

        # Lease accounting.  Every simulation rides a grant and each cell's
        # first grant is free, so duplicated work is bounded by the leases
        # that legitimately expired (or were failed back).  Every cell
        # reached "done" exactly once — through a complete or through
        # store absorption — so those two counters partition the manifest.
        farm_stats = status["stats"]
        computed = sum(s["computed"] for s in summaries)
        abandoned = sum(s["abandoned"] for s in summaries)
        assert status["leased"] == 0
        assert computed + abandoned >= len(keys)
        assert (computed + abandoned) - len(keys) <= farm_stats["expired"] + farm_stats["failed"]
        assert farm_stats["completes"] + farm_stats["recovered"] == len(keys)


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_request_stop_unblocks_serve_forever_and_keeps_counters(self, tmp_path):
        service = StoreService(ResultStore(tmp_path / "s"), port=0, token=TOKEN)
        thread = threading.Thread(target=service.serve_forever)
        thread.start()
        status, _ = http_request(service.url + "/healthz")
        assert status == 200
        service.request_stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert service.request_counts["/healthz"] == 1

    def test_drain_waits_for_in_flight_requests(self, tmp_path):
        service = StoreService(ResultStore(tmp_path / "s"), port=0).start()
        try:
            assert service.drain(timeout=1.0) is True  # idle server drains at once
            service.server.begin_request()  # simulate a request mid-flight
            assert service.drain(timeout=0.2) is False
            service.server.end_request()
            assert service.drain(timeout=1.0) is True
        finally:
            service.stop()

    def test_sigterm_shuts_the_cli_server_down_cleanly(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "store",
                "--store",
                str(tmp_path / "served"),
                "serve",
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving result store" in banner
            url = banner.split(" at ", 1)[1].split(" ", 1)[0]
            status, _ = http_request(url + "/healthz")
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "shut down cleanly" in out
        assert "/healthz=1" in out  # the flushed request counters


# ----------------------------------------------------------------------
# coupling/fairness document cells & report --from-store
# ----------------------------------------------------------------------
COUPLING_KW = dict(sizes=(16,), runs_per_size=1, base_seed=3)
FAIRNESS_KW = dict(size=16, walk_rounds=20, push_pull_trials=1, base_seed=3)


class TestDocumentCells:
    def test_coupling_experiment_round_trips_through_the_store(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "docs")
        first = run_coupling_experiment(store=store, **COUPLING_KW)

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not simulate")

        monkeypatch.setattr(
            "repro.experiments.coupling_experiment.CoupledPushVisitExchange.run", boom
        )
        second = run_coupling_experiment(store=store, **COUPLING_KW)
        assert second.table_rows() == first.table_rows()  # lemma13 violations included
        run1, run2 = first.runs[16][0], second.runs[16][0]
        assert np.array_equal(run1.push_inform_round, run2.push_inform_round)
        assert np.array_equal(run1.c_counter_at_inform, run2.c_counter_at_inform)

    def test_fairness_experiment_round_trips_through_the_store(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "docs")
        first = run_fairness_experiment(store=store, **FAIRNESS_KW)

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not simulate")

        monkeypatch.setattr("repro.experiments.fairness_experiment.edge_usage_from_walks", boom)
        second = run_fairness_experiment(store=store, **FAIRNESS_KW)
        assert second.table_rows() == first.table_rows()

    def test_from_store_helpers_load_and_fail_loudly(self, tmp_path):
        store = ResultStore(tmp_path / "docs")
        with pytest.raises(KeyError, match="coupling"):
            coupling_result_from_store(store, **COUPLING_KW)
        with pytest.raises(KeyError, match="fairness"):
            fairness_result_from_store(store, **FAIRNESS_KW)
        ran_coupling = run_coupling_experiment(store=store, **COUPLING_KW)
        ran_fairness = run_fairness_experiment(store=store, **FAIRNESS_KW)
        loaded_coupling = coupling_result_from_store(store, **COUPLING_KW)
        loaded_fairness = fairness_result_from_store(store, **FAIRNESS_KW)
        assert loaded_coupling.table_rows() == ran_coupling.table_rows()
        assert loaded_fairness.table_rows() == ran_fairness.table_rows()

    def test_document_kind_is_checked_on_read(self, tmp_path):
        from repro.store import cell_key
        from repro.experiments.fairness_experiment import fairness_cell

        store = ResultStore(tmp_path / "docs")
        run_fairness_experiment(store=store, **FAIRNESS_KW)
        key = cell_key(fairness_cell(**FAIRNESS_KW))
        with pytest.raises(StoreError):
            store.get_document(key, kind="coupling")

    def test_documents_travel_over_the_service(self, tmp_path):
        store = ResultStore(tmp_path / "docs")
        ran = run_fairness_experiment(store=store, **FAIRNESS_KW)
        with StoreService(store, port=0) as svc:
            remote = ResultStore(svc.url, cache=tmp_path / "cache")
            loaded = fairness_result_from_store(remote, **FAIRNESS_KW)
        assert loaded.table_rows() == ran.table_rows()


class TestReportCLI:
    def test_only_rejects_unknown_sections(self, capsys):
        from repro.cli.main import main

        with pytest.raises(SystemExit):
            main(["report", "--only", "no-such-section"])

    def test_from_store_names_the_missing_document(self, tmp_path, capsys):
        from repro.cli.main import main

        code = main(
            ["report", "--from-store", "--store", str(tmp_path / "empty"), "--only", "fairness"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "fairness" in captured.err

    def test_store_submit_requires_a_hub_url(self, tmp_path, capsys):
        from repro.cli.main import main

        code = main(
            [
                "store",
                "--store",
                str(tmp_path / "local"),
                "submit",
                "fig1a-star",
                "--token",
                "t",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "hub" in captured.err

    def test_cli_submit_status_and_worker_against_a_live_hub(self, tmp_path, capsys, monkeypatch):
        from repro.cli.main import main

        monkeypatch.setenv("REPRO_STORE_CACHE", str(tmp_path / "cli-cache"))
        store = ResultStore(tmp_path / "hub")
        with StoreService(store, port=0, token=TOKEN, lease_ttl=5.0) as hub:
            code = main(
                [
                    "store",
                    "--store",
                    hub.url,
                    "submit",
                    "fig1a-star",
                    "--scale",
                    "0.05",
                    "--trials",
                    "1",
                    "--token",
                    TOKEN,
                ]
            )
            captured = capsys.readouterr()
            assert code == 0
            sid = captured.out.strip().splitlines()[0]
            assert len(sid) == 16

            code = main(["store", "--store", hub.url, "status", sid, "--token", TOKEN])
            captured = capsys.readouterr()
            assert code == 0
            status = json.loads(captured.out)
            assert status["sweep"] == sid and status["pending"] > 0

            code = main(["worker", hub.url, sid, "--token", TOKEN, "--poll-interval", "0.05"])
            captured = capsys.readouterr()
            assert code == 0
            summary = json.loads(captured.out.strip().splitlines()[-1])
            assert summary["computed"] == status["pending"]
            assert hub.farm.status(sid)["pending"] == 0

    def test_worker_without_token_is_a_usage_error(self, capsys, monkeypatch):
        from repro.cli.main import main

        monkeypatch.delenv("REPRO_STORE_TOKEN", raising=False)
        code = main(["worker", "http://127.0.0.1:9", "0" * 16])
        captured = capsys.readouterr()
        assert code == 2
        assert "token" in captured.err
