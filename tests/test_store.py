"""Tests for the content-addressed result store (repro.store).

The store's contract is exactness: a cache hit must be bit-identical to a
recompute, an interrupted sweep must resume where it stopped, and a corrupt
artifact must fail loudly.  Every test here runs against a temp-dir store and
pins those three properties.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec
from repro.experiments.registry import get_experiment
from repro.experiments.reporting import result_from_store
from repro.experiments.runner import run_experiment, run_trial_set
from repro.graphs import complete_graph, star
from repro.store import (
    ResultStore,
    StoreCorruptionError,
    SweepJournal,
    canonical_json,
    graph_fingerprint,
    resolve_cell,
    resolve_store,
    sweep_payload,
    trial_cell_payload,
)


def star_case(size=30):
    return GraphCase(graph=star(size), source=0, size_parameter=size)


def complete_builder(size, seed):
    return GraphCase(graph=complete_graph(size), source=0, size_parameter=size)


TOY_CONFIG = ExperimentConfig(
    experiment_id="toy-store",
    title="Toy store experiment",
    paper_reference="none",
    description="fast experiment used by the store tests",
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


class TestCanonicalJson:
    def test_dict_order_and_tuples_normalized(self):
        a = canonical_json({"b": (1, 2), "a": [3.0]})
        b = canonical_json({"a": [3.0], "b": [1, 2]})
        assert a == b

    def test_numpy_scalars_and_arrays_unwrap(self):
        a = canonical_json({"x": np.int64(4), "y": np.float64(0.5), "z": np.arange(3)})
        b = canonical_json({"x": 4, "y": 0.5, "z": [0, 1, 2]})
        assert a == b

    def test_negative_zero_folds_to_zero(self):
        assert canonical_json(-0.0) == canonical_json(0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestCellKeys:
    def test_key_is_stable_across_calls(self):
        case = star_case()
        plans = [
            resolve_cell(ProtocolSpec("push"), case, trials=4, base_seed=7)
            for _ in range(2)
        ]
        assert plans[0].key == plans[1].key
        assert len(plans[0].key) == 64

    @pytest.mark.parametrize(
        "override",
        [
            {"base_seed": 8},
            {"trials": 5},
            {"max_rounds": 50},
            {"record_history": True},
            {"dynamics": {"kind": "bernoulli-edges", "rate": 0.1, "seed": 0}},
        ],
    )
    def test_key_sensitivity(self, override):
        case = star_case()
        base = dict(trials=4, base_seed=7)
        reference = resolve_cell(ProtocolSpec("push"), case, **base)
        changed = resolve_cell(ProtocolSpec("push"), case, **{**base, **override})
        assert reference.key != changed.key

    def test_graph_structure_changes_key(self):
        a = resolve_cell(ProtocolSpec("push"), star_case(30), trials=2, base_seed=0)
        b = resolve_cell(ProtocolSpec("push"), star_case(31), trials=2, base_seed=0)
        assert a.key != b.key

    def test_graph_fingerprint_independent_of_construction_order(self):
        from repro.graphs import Graph

        edges = [(0, 1), (1, 2), (2, 3)]
        a = Graph(4, edges, name="g")
        b = Graph(4, list(reversed(edges)), name="g")
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_spec_level_dynamics_override_enters_key(self):
        case = star_case()
        schedule = {"kind": "bernoulli-edges", "rate": 0.2, "seed": 1}
        spec = ProtocolSpec("push", kwargs={"dynamics": schedule})
        pinned = resolve_cell(spec, case, trials=2, base_seed=0, dynamics=None)
        defaulted = resolve_cell(
            ProtocolSpec("push"), case, trials=2, base_seed=0, dynamics=schedule
        )
        # The spec-level schedule wins at run time, so both describe the same
        # cell and must share a key.
        assert pinned.key == defaulted.key

    def test_payload_pins_the_batched_backend(self):
        # Existing addresses hash a fixed "backend": "batched" entry.
        case = star_case()
        plan = resolve_cell(ProtocolSpec("push"), case, trials=2, base_seed=0)
        assert plan.payload["backend"] == "batched"
        assert plan.payload == trial_cell_payload(
            graph=case.graph, source=0, protocol_name="push", seeds=plan.seeds
        )


class TestArtifactRoundTrip:
    def test_round_trip_is_bit_identical(self, store):
        case = star_case()
        computed = run_trial_set(
            ProtocolSpec("push"),
            case,
            trials=4,
            base_seed=3,
            record_history=True,
            store=store,
        )
        plan = resolve_cell(
            ProtocolSpec("push"), case, trials=4, base_seed=3, record_history=True
        )
        loaded = store.get_trial_set(plan.key)
        assert loaded == computed
        assert loaded.backend == computed.backend
        for a, b in zip(loaded.results, computed.results):
            assert a.informed_vertex_history == b.informed_vertex_history
            assert a.metadata == b.metadata

    def test_round_trip_with_incomplete_runs(self, store):
        case = star_case(60)
        computed = run_trial_set(
            ProtocolSpec("push"), case, trials=3, base_seed=1, max_rounds=1, store=store
        )
        plan = resolve_cell(
            ProtocolSpec("push"), case, trials=3, base_seed=1, max_rounds=1
        )
        loaded = store.get_trial_set(plan.key)
        assert loaded == computed
        assert all(r.broadcast_time is None for r in loaded.results)

    def test_round_trip_agent_protocol_metadata(self, store):
        case = complete_builder(12, 0)
        spec = ProtocolSpec("visit-exchange", kwargs={"agent_density": 2.0})
        computed = run_trial_set(
            spec, case, trials=2, base_seed=5, record_history=True, store=store
        )
        plan = resolve_cell(spec, case, trials=2, base_seed=5, record_history=True)
        loaded = store.get_trial_set(plan.key)
        assert loaded == computed
        assert loaded.results[0].num_agents == 24
        assert loaded.results[0].informed_agent_history

    def test_get_missing_key_returns_none(self, store):
        assert store.get_trial_set("0" * 64) is None

    def test_malformed_key_rejected(self, store):
        from repro.store import StoreError

        with pytest.raises(StoreError):
            store.get_trial_set("not-a-key")


class TestIntegrity:
    def _one_key(self, store):
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        return next(store.keys())

    def test_corrupt_npz_fails_loudly(self, store):
        key = self._one_key(store)
        npz_path, _ = store.object_paths(key)
        data = bytearray(npz_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        npz_path.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptionError):
            store.get_trial_set(key)

    def test_missing_npz_fails_loudly(self, store):
        key = self._one_key(store)
        npz_path, _ = store.object_paths(key)
        npz_path.unlink()
        with pytest.raises(StoreCorruptionError):
            store.get_trial_set(key)

    def test_raced_full_deletion_is_a_miss_not_corruption(self, store, monkeypatch):
        # A concurrent gc may delete the whole object between the sidecar
        # read and the NPZ read; that must surface as a cache miss.
        key = self._one_key(store)
        npz_path, sidecar_path = store.object_paths(key)
        sidecar = store.read_sidecar(key)
        npz_path.unlink()
        sidecar_path.unlink()
        monkeypatch.setattr(store, "read_sidecar", lambda k: sidecar)
        assert store.get_trial_set(key) is None

    def test_unreadable_sidecar_fails_loudly(self, store):
        key = self._one_key(store)
        _, sidecar_path = store.object_paths(key)
        sidecar_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreCorruptionError):
            store.get_trial_set(key)

    def test_format_version_mismatch_fails_loudly(self, store):
        key = self._one_key(store)
        _, sidecar_path = store.object_paths(key)
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        sidecar["format"] = 999
        sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(StoreCorruptionError):
            store.get_trial_set(key)


class TestCaching:
    def test_second_run_executes_zero_cells(self, store, monkeypatch):
        calls = count_batches(monkeypatch)
        first = run_trial_set(
            ProtocolSpec("push"), star_case(), trials=3, base_seed=2, store=store
        )
        assert calls["n"] == 1
        second = run_trial_set(
            ProtocolSpec("push"), star_case(), trials=3, base_seed=2, store=store
        )
        assert calls["n"] == 1  # pure cache hit
        assert second == first

    def test_force_recomputes(self, store, monkeypatch):
        calls = count_batches(monkeypatch)
        first = run_trial_set(
            ProtocolSpec("push"), star_case(), trials=3, base_seed=2, store=store
        )
        forced = run_trial_set(
            ProtocolSpec("push"), star_case(), trials=3, base_seed=2, store=store,
            force=True,
        )
        assert calls["n"] == 2
        assert forced == first  # determinism: the recompute matches

    def test_numpy_typed_protocol_kwargs_persist(self, store):
        # The payload is normalized before hashing AND before the sidecar
        # write, so numpy-typed kwargs cannot crash put_trial_set after the
        # simulation has already run.
        case = complete_builder(12, 0)
        spec = ProtocolSpec("visit-exchange", kwargs={"num_agents": np.int64(8)})
        first = run_trial_set(spec, case, trials=2, base_seed=1, store=store)
        second = run_trial_set(spec, case, trials=2, base_seed=1, store=store)
        assert second.store_status[0] == "cached"
        assert second == first

    def test_cached_equals_uncached(self, store):
        uncached = run_trial_set(
            ProtocolSpec("push-pull"), star_case(), trials=4, base_seed=9, store=False
        )
        run_trial_set(
            ProtocolSpec("push-pull"), star_case(), trials=4, base_seed=9, store=store
        )
        cached = run_trial_set(
            ProtocolSpec("push-pull"), star_case(), trials=4, base_seed=9, store=store
        )
        assert cached == uncached

    def test_env_var_enables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0)
        env_store = resolve_store(None)
        assert env_store is not None
        assert len(list(env_store.keys())) == 1
        # store=False must win over the environment.
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "other-store"))
        run_trial_set(
            ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=False
        )
        assert not (tmp_path / "other-store").exists()


class TestSweepCaching:
    def test_registry_sweep_twice_is_bit_identical_with_zero_recompute(
        self, store, monkeypatch
    ):
        """The acceptance criterion: rerunning a registry sweep with --store
        recomputes nothing and reproduces the exact ExperimentResult."""
        calls = count_batches(monkeypatch)
        config = get_experiment("fig1a-star")
        kwargs = dict(base_seed=0, sizes=(8, 12), trials=2, store=store)
        first = run_experiment(config, **kwargs)
        cells_executed = calls["n"]
        assert cells_executed == len(first.cells) > 0
        second = run_experiment(config, **kwargs)
        assert calls["n"] == cells_executed  # zero simulation cells on rerun
        assert [c.trials for c in second.cells] == [c.trials for c in first.cells]
        assert [c.summary for c in second.cells] == [c.summary for c in first.cells]
        statuses = [c.trials.store_status[0] for c in second.cells]
        assert statuses == ["cached"] * len(second.cells)

    def test_store_run_matches_plain_run(self, store):
        plain = run_experiment(TOY_CONFIG, base_seed=4, store=False)
        stored = run_experiment(TOY_CONFIG, base_seed=4, store=store)
        rerun = run_experiment(TOY_CONFIG, base_seed=4, store=store)
        assert [c.trials for c in plain.cells] == [c.trials for c in stored.cells]
        assert [c.trials for c in plain.cells] == [c.trials for c in rerun.cells]

    def test_journal_records_cells_and_statuses(self, store):
        run_experiment(TOY_CONFIG, base_seed=4, store=store)
        run_experiment(TOY_CONFIG, base_seed=4, store=store)
        journal = SweepJournal(
            store,
            sweep_payload(
                TOY_CONFIG,
                base_seed=4,
                sizes=TOY_CONFIG.sizes,
                trials=TOY_CONFIG.trials,
            ),
        )
        events = list(journal.events())
        assert [e["event"] for e in events].count("sweep-start") == 2
        assert [e["event"] for e in events].count("sweep-end") == 2
        statuses = journal.last_run_statuses()
        assert set(statuses.values()) == {"cached"}
        assert len(statuses) == len(TOY_CONFIG.sizes) * len(TOY_CONFIG.protocols)


class TestInterruptedResume:
    def test_killed_sweep_resumes_where_it_stopped(self, store, monkeypatch):
        """Kill a sweep after two cells; the rerun must execute only the
        missing cells and still produce a bit-identical ExperimentResult."""
        import repro.experiments.runner as runner_module

        reference = run_experiment(TOY_CONFIG, base_seed=11, store=False)
        total_cells = len(reference.cells)
        assert total_cells == 4

        real_run_batch = runner_module.run_batch
        calls = {"n": 0}

        def dying_run_batch(*args, **kwargs):
            if calls["n"] >= 2:
                raise KeyboardInterrupt("simulated kill mid-sweep")
            calls["n"] += 1
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(runner_module, "run_batch", dying_run_batch)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(TOY_CONFIG, base_seed=11, store=store)
        assert len(list(store.keys())) == 2  # finished cells were persisted

        # The journal shows the interrupted run stopped after two cells.
        journal = SweepJournal(
            store,
            sweep_payload(
                TOY_CONFIG,
                base_seed=11,
                sizes=TOY_CONFIG.sizes,
                trials=TOY_CONFIG.trials,
            ),
        )
        assert len(journal.cell_events()) == 2

        # Resume: only the two missing cells execute.
        counting = {"n": 0}

        def counting_run_batch(*args, **kwargs):
            counting["n"] += 1
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(runner_module, "run_batch", counting_run_batch)
        resumed = run_experiment(TOY_CONFIG, base_seed=11, store=store)
        assert counting["n"] == total_cells - 2
        assert [c.trials for c in resumed.cells] == [c.trials for c in reference.cells]
        statuses = [c.trials.store_status[0] for c in resumed.cells]
        assert statuses.count("cached") == 2
        assert statuses.count("computed") == 2


class TestResultFromStore:
    def test_reporting_reads_straight_from_store(self, store, monkeypatch):
        computed = run_experiment(TOY_CONFIG, base_seed=6, store=store)
        calls = count_batches(monkeypatch)
        loaded = result_from_store(TOY_CONFIG, store, base_seed=6)
        assert calls["n"] == 0
        assert [c.trials for c in loaded.cells] == [c.trials for c in computed.cells]
        assert loaded.table_rows() == computed.table_rows()

    def test_missing_cells_raise_by_default(self, store):
        with pytest.raises(KeyError):
            result_from_store(TOY_CONFIG, store, base_seed=6)

    def test_partial_result_when_not_strict(self, store):
        run_experiment(TOY_CONFIG, base_seed=6, sizes=(8,), store=store)
        partial = result_from_store(
            TOY_CONFIG, store, base_seed=6, strict=False
        )
        assert len(partial.cells) == len(TOY_CONFIG.protocols)


class TestManagement:
    def test_entries_flag_corrupt_sidecars_instead_of_raising(self, store):
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        run_trial_set(ProtocolSpec("pull"), star_case(), trials=2, base_seed=0, store=store)
        a_key = next(store.keys())
        _, sidecar_path = store.object_paths(a_key)
        sidecar_path.write_text("{torn", encoding="utf-8")
        entries = store.entries()
        assert len(entries) == 2  # the healthy object is still listed
        by_key = {e["key"]: e for e in entries}
        assert by_key[a_key]["protocol"] == "<corrupt sidecar>"

    def test_gc_sweeps_stale_orphaned_npz(self, store):
        import os
        import time as time_module

        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        npz_path, sidecar_path = store.object_paths(next(store.keys()))
        orphan = npz_path.parent / ("f" * 64 + ".npz")
        orphan.write_bytes(b"payload whose sidecar never landed")
        store.gc(keep_referenced=False, older_than_days=999)
        assert orphan.exists()  # young: could be a live writer mid-put
        hour_ago = time_module.time() - 7200
        os.utime(orphan, (hour_ago, hour_ago))
        store.gc(keep_referenced=False, older_than_days=999)
        assert not orphan.exists()
        assert sidecar_path.exists()  # committed objects are untouched

    def test_gc_spares_fresh_tmp_files_of_live_writers(self, store):
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        key = next(store.keys())
        npz_path, _ = store.object_paths(key)
        fresh_tmp = npz_path.parent / f".{npz_path.name}.99999.tmp"
        fresh_tmp.write_bytes(b"in-flight write")
        store.gc(keep_referenced=False, older_than_days=999)
        assert fresh_tmp.exists()  # a live writer's temp file survives
        import os

        hour_ago = __import__("time").time() - 7200
        os.utime(fresh_tmp, (hour_ago, hour_ago))
        store.gc(keep_referenced=False, older_than_days=999)
        assert not fresh_tmp.exists()  # an abandoned one is swept

    def test_ls_entries_describe_objects(self, store):
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        entries = store.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["protocol"] == "push"
        assert entry["trials"] == 2
        assert entry["backend"] == "batched"
        assert entry["bytes"] > 0

    def test_gc_keeps_journal_referenced_objects(self, store):
        run_experiment(TOY_CONFIG, base_seed=4, store=store)  # journaled
        run_trial_set(
            ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store
        )  # adhoc, unreferenced
        total = len(list(store.keys()))
        removed = store.gc()
        assert len(removed) == 1
        assert len(list(store.keys())) == total - 1

    def test_gc_all_empties_the_store(self, store):
        run_experiment(TOY_CONFIG, base_seed=4, store=store)
        removed = store.gc(keep_referenced=False)
        assert removed
        assert list(store.keys()) == []

    def test_gc_dry_run_deletes_nothing(self, store):
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        assert store.gc(dry_run=True, keep_referenced=False)
        assert len(list(store.keys())) == 1

    def test_gc_budget_evicts_least_recently_read_first(self, store):
        import os
        import time as time_module

        for seed in (0, 1, 2):
            run_trial_set(
                ProtocolSpec("push"), star_case(), trials=2, base_seed=seed, store=store
            )
        keys = list(store.keys())
        assert len(keys) == 3
        # Stamp distinct last-read times, oldest first; then "read" the
        # oldest one, which must bump it to most recently used.
        now = time_module.time()
        for age, key in zip((300, 200, 100), keys):
            npz, sidecar = store.object_paths(key)
            os.utime(npz, (now - age, now - age))
            os.utime(sidecar, (now - age, now - age))
        store.get_trial_set(keys[0])

        sizes = {
            key: sum(p.stat().st_size for p in store.object_paths(key))
            for key in keys
        }
        budget = sizes[keys[0]] + sizes[keys[2]] + 1
        removed = store.gc(max_bytes=budget)
        # keys[1] was the least recently read (keys[0] was just read,
        # keys[2] has the freshest stamp), so it alone is evicted.
        assert removed == [keys[1]]
        assert set(store.keys()) == {keys[0], keys[2]}

    def test_gc_budget_keeps_journal_referenced_objects_pinned(self, store):
        run_experiment(TOY_CONFIG, base_seed=4, store=store)  # journaled
        run_trial_set(
            ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store
        )  # adhoc, unreferenced
        removed = store.gc(max_bytes=0)
        assert len(removed) == 1  # only the unpinned object can go
        assert len(list(store.keys())) == len(TOY_CONFIG.sizes) * len(TOY_CONFIG.protocols)
        # ... unless references are explicitly ignored.
        assert store.gc(max_bytes=0, keep_referenced=False)
        assert list(store.keys()) == []

    def test_gc_budget_honours_keep_days_age_floor(self, store):
        import os
        import time as time_module

        for seed in (0, 1):
            run_trial_set(
                ProtocolSpec("push"), star_case(), trials=2, base_seed=seed, store=store
            )
        keys = list(store.keys())
        old, fresh = keys
        ten_days_ago = time_module.time() - 10 * 86400
        for path in store.object_paths(old):
            os.utime(path, (ten_days_ago, ten_days_ago))
        # Only the object older than the floor may be evicted for the budget.
        removed = store.gc(max_bytes=0, older_than_days=7)
        assert removed == [old]
        assert list(store.keys()) == [fresh]

    def test_gc_budget_noop_when_under_budget(self, store):
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        assert store.gc(max_bytes=10**9) == []
        assert len(list(store.keys())) == 1

    def test_gc_budget_dry_run_deletes_nothing(self, store):
        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        assert store.gc(max_bytes=0, dry_run=True)
        assert len(list(store.keys())) == 1

    def test_reads_do_not_extend_age_based_gc(self, store):
        import os
        import time as time_module

        run_trial_set(ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store)
        key = next(store.keys())
        npz, sidecar = store.object_paths(key)
        ten_days_ago = time_module.time() - 10 * 86400
        os.utime(sidecar, (ten_days_ago, ten_days_ago))
        os.utime(npz, (ten_days_ago, ten_days_ago))
        # A read marks LRU recency (payload mtime) but must not refresh the
        # commit age the --keep-days cutoff is defined over.
        store.get_trial_set(key)
        assert store.gc(keep_referenced=False, older_than_days=7) == [key]

    def test_export_twice_is_idempotent(self, store, tmp_path):
        run_experiment(TOY_CONFIG, base_seed=4, store=store)  # journaled
        destination = ResultStore(tmp_path / "seed")
        store.export(destination.root)
        once = {p.name: p.read_bytes() for p in destination.sweeps_dir.glob("*.jsonl")}
        store.export(destination.root)
        twice = {p.name: p.read_bytes() for p in destination.sweeps_dir.glob("*.jsonl")}
        assert once and once == twice

    def test_export_round_trips(self, store, tmp_path):
        computed = run_trial_set(
            ProtocolSpec("push"), star_case(), trials=2, base_seed=0, store=store
        )
        destination = ResultStore(tmp_path / "exported")
        assert store.export(destination.root) == 1
        key = next(destination.keys())
        assert destination.get_trial_set(key) == computed


class TestParallelSweepWithStore:
    def test_workers_compose_with_store(self, store):
        plain = run_experiment(TOY_CONFIG, base_seed=3, store=False)
        stored = run_experiment(TOY_CONFIG, base_seed=3, store=store, workers=2)
        assert [c.trials for c in stored.cells] == [c.trials for c in plain.cells]
        # Workers persisted from their own processes; a serial rerun is warm.
        rerun = run_experiment(TOY_CONFIG, base_seed=3, store=store)
        assert [c.trials.store_status[0] for c in rerun.cells] == ["cached"] * 4
        assert [c.trials for c in rerun.cells] == [c.trials for c in plain.cells]
