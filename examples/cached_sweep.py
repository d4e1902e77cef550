"""Cached, resumable experiment sweeps with the content-addressed result store.

Every (graph, protocol, seeds) cell in this package is a pure
function of its spec, so the result store (``repro.store``) can cache
finished cells *exactly*: a warm run returns bit-identical ``TrialSet``
records while executing zero simulations.  This example demonstrates the
full loop on a Figure-1(b)-style sweep:

1. a **cold** run computes every cell and persists it;
2. a **warm** rerun serves every cell from the store (orders of magnitude
   faster, byte-for-byte the same numbers);
3. the reporting layer rebuilds the experiment table **straight from the
   store**, without touching the runner at all;
4. the store is inspected the way ``repro store ls`` does;
5. the warm store is **served over HTTP** (``repro store serve``) and the
   same sweep runs against the URL: zero simulations, every object fetched
   once into a local read-through cache, and a second URL-backed run that
   never touches the network at all.

Resumability falls out of the same mechanism: each cell is persisted the
moment it finishes, so a killed sweep simply reruns — only the missing
cells execute (see ``tests/test_store.py::TestInterruptedResume``).

Run with::

    python examples/cached_sweep.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.experiments.config import ExperimentConfig, GraphCase, ProtocolSpec
from repro.experiments.reporting import experiment_table, result_from_store
from repro.experiments.runner import run_experiment
from repro.graphs import double_star
from repro.store import ResultStore, StoreService


def build_case(size: int, seed: int) -> GraphCase:
    """A double star from one of the two hubs — the paper's Figure 1(b)."""
    return GraphCase(graph=double_star(size), source=0, size_parameter=size)


def sweep_config(sizes=(64, 128, 256), trials: int = 10) -> ExperimentConfig:
    """A small PUSH vs VISIT-EXCHANGE sweep on double stars."""
    return ExperimentConfig(
        experiment_id="example-cached-sweep",
        title="Cached double-star sweep (example)",
        paper_reference="Figure 1(b)",
        description="push vs visit-exchange on double stars, store-backed",
        graph_builder=build_case,
        sizes=tuple(sizes),
        protocols=(ProtocolSpec("push"), ProtocolSpec("visit-exchange")),
        trials=trials,
    )


def main(sizes=(64, 128, 256), trials: int = 10) -> None:
    config = sweep_config(sizes, trials)
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "store")

        start = time.perf_counter()
        cold = run_experiment(config, base_seed=0, store=store)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = run_experiment(config, base_seed=0, store=store)
        warm_seconds = time.perf_counter() - start

        identical = [c.trials for c in cold.cells] == [c.trials for c in warm.cells]
        statuses = [c.trials.store_status[0] for c in warm.cells]
        print(experiment_table(cold))
        print()
        print(f"cold sweep: {cold_seconds * 1000:8.1f} ms (computed + persisted)")
        print(
            f"warm sweep: {warm_seconds * 1000:8.1f} ms "
            f"({statuses.count('cached')}/{len(statuses)} cells from cache)"
        )
        print(f"warm results bit-identical to cold: {identical}")

        # Reporting straight from the store: no runner, no simulation.
        loaded = result_from_store(config, store, base_seed=0)
        print(
            "result_from_store reproduces the table: "
            f"{loaded.table_rows() == cold.table_rows()}"
        )

        print("\ncached cells (the `repro store ls` view):")
        for entry in store.entries():
            print(
                f"  {entry['key'][:16]}  {entry['protocol']:15s} "
                f"{entry['graph']:22s} trials={entry['trials']} "
                f"{entry['bytes']:6d} bytes"
            )

        # Shared-store service: serve the warm store over HTTP and run the
        # same sweep against the URL, exactly as a colleague's laptop or a
        # CI job would with REPRO_STORE=http://host:port.
        with StoreService(store, port=0) as service:
            print(f"\nserving the store at {service.url} ...")
            remote = ResultStore(service.url, cache=Path(tmp) / "cache")

            start = time.perf_counter()
            over_http = run_experiment(config, base_seed=0, store=remote)
            http_seconds = time.perf_counter() - start
            identical = [c.trials for c in over_http.cells] == [c.trials for c in cold.cells]
            fetches = service.request_counts.get("/cells/*/object", 0)
            print(
                f"sweep via HTTP: {http_seconds * 1000:8.1f} ms "
                f"(zero simulations, {fetches} objects fetched once)"
            )
            print(f"HTTP results bit-identical to cold: {identical}")

            run_experiment(config, base_seed=0, store=remote)
            fetches_after = service.request_counts.get("/cells/*/object", 0)
            print(
                "second HTTP-backed run object fetches: "
                f"{fetches_after - fetches} (served from the read-through cache)"
            )


if __name__ == "__main__":
    main()
