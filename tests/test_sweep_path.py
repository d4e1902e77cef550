"""One sweep path: each graph built once, each cell read once, each CSR hashed once.

``run_experiment`` resolves a sweep's plans once, in the calling process,
with or without a store.  These tests count what that costs: graph builds
(and where they run), store reads, hub requests and CSR hashes.
"""

from __future__ import annotations

import hashlib
import os
from functools import partial
from types import SimpleNamespace

import pytest

import repro.store.keys as keys_module
from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec
from repro.experiments.runner import run_experiment
from repro.graphs import complete_graph
from repro.store import ResultStore, StoreService

SIZES = (8, 12, 16)
PROTOCOLS = (ProtocolSpec("push"), ProtocolSpec("pull"), ProtocolSpec("push-pull"))


def logged_builder(log_path, size, seed):
    """Build a complete graph and append this process's pid to ``log_path``."""
    with open(log_path, "a") as log:
        log.write(f"{os.getpid()}\n")
    return GraphCase(graph=complete_graph(size), source=0, size_parameter=size)


def toy_config(builder):
    return ExperimentConfig(
        experiment_id="toy-sweep-path",
        title="Toy sweep-path experiment",
        paper_reference="none",
        description="fast experiment used by the sweep-path tests",
        graph_builder=builder,
        sizes=SIZES,
        protocols=PROTOCOLS,
        trials=2,
    )


def plain_builder(size, seed):
    return GraphCase(graph=complete_graph(size), source=0, size_parameter=size)


CONFIG = toy_config(plain_builder)
CELLS = len(SIZES) * len(PROTOCOLS)


class TestGraphBuilds:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("with_store", [False, True])
    def test_each_sweep_point_is_built_once_in_the_calling_process(
        self, tmp_path, workers, with_store
    ):
        log_path = tmp_path / "builds.log"
        config = toy_config(partial(logged_builder, str(log_path)))
        store = ResultStore(tmp_path / "store") if with_store else False
        result = run_experiment(config, base_seed=1, store=store, workers=workers)
        assert len(result.cells) == CELLS
        pids = log_path.read_text().split()
        assert pids == [str(os.getpid())] * len(SIZES)


def count_reads(monkeypatch):
    calls = []
    real = ResultStore.get_trial_set

    def counting(self, key):
        calls.append(key)
        return real(self, key)

    monkeypatch.setattr(ResultStore, "get_trial_set", counting)
    return calls


class TestStoreReads:
    def test_cold_sweep_reads_each_cell_once(self, tmp_path, monkeypatch):
        calls = count_reads(monkeypatch)
        result = run_experiment(CONFIG, base_seed=2, store=tmp_path / "store")
        assert [c.trials.store_status[0] for c in result.cells] == ["computed"] * CELLS
        assert sorted(calls) == sorted(c.trials.store_status[1] for c in result.cells)

    def test_warm_sweep_reads_each_cell_once(self, tmp_path, monkeypatch):
        run_experiment(CONFIG, base_seed=2, store=tmp_path / "store")
        calls = count_reads(monkeypatch)
        result = run_experiment(CONFIG, base_seed=2, store=tmp_path / "store")
        assert [c.trials.store_status[0] for c in result.cells] == ["cached"] * CELLS
        assert len(calls) == CELLS

    def test_computed_cell_costs_one_hub_object_request(self, tmp_path):
        with StoreService(ResultStore(tmp_path / "hub"), port=0) as service:
            client = ResultStore(service.url, cache=tmp_path / "cache")
            result = run_experiment(CONFIG, base_seed=3, store=client)
            assert [c.trials.store_status[0] for c in result.cells] == ["computed"] * CELLS
            assert service.request_counts.get("/cells/*/object", 0) == CELLS


class _HashLog:
    """A ``hashlib`` stand-in that counts graph-fingerprint hashes."""

    def __init__(self):
        self.graphs = 0

    def sha256(self, data=b""):
        log, digest = self, hashlib.sha256(data)

        class Counting:
            def update(self, chunk):
                log.graphs += chunk == b"repro-graph-v2\0"
                digest.update(chunk)

            def hexdigest(self):
                return digest.hexdigest()

        return Counting()


class TestGraphHashes:
    def test_cold_sweep_hashes_each_graph_once(self, tmp_path, monkeypatch):
        hashes = _HashLog()
        monkeypatch.setattr(keys_module, "hashlib", SimpleNamespace(sha256=hashes.sha256))
        result = run_experiment(CONFIG, base_seed=4, store=tmp_path / "store")
        assert len(result.cells) == CELLS
        assert hashes.graphs == len(SIZES)
