"""Execution of experiment configurations.

The runner walks an :class:`~repro.experiments.config.ExperimentConfig` over
its size sweep, runs every protocol the configured number of trials at every
size, and packages everything into an :class:`ExperimentResult` with
per-(size, protocol) summaries and per-protocol series that the reporting and
shape-checking code consumes.

Every cell executes through :func:`repro.core.batch.run_batch`, which
advances all trials of the cell simultaneously on 2-D numpy state.  Trial
``t``'s seed is derived from stable components, so a cell is a pure function
of its resolved plan.

Multi-cell sweeps additionally shard across CPU cores: ``run_experiment``
accepts ``workers=N`` and schedules one task per (size, protocol) cell on a
spawn-safe process pool, deriving every seed exactly as the serial path does,
so the result is bit-identical to ``workers=1`` regardless of scheduling.

Both entry points compose with the content-addressed result store of
:mod:`repro.store` (``store=`` / ``force=`` parameters): each cell is a pure
function of its resolved plan, so before executing a cell the runner consults
the store under the cell's canonical key, and after executing it persists the
trial set.  Cache hits return bit-identical results to a recompute, sweeps
journal their progress (``sweeps/`` in the store root) and an interrupted
sweep resumes from its completed cells on the next invocation.  The store may
be a local directory or the URL of a ``repro store serve`` service
(``REPRO_STORE=http://host:port``): a sweep against a pre-warmed central
store executes zero simulation cells, fetches each object once into a local
read-through cache, and computes anything the server lacks locally.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.scaling import best_growth_model, power_law_exponent
from ..analysis.statistics import Summary, summarize_trials
from ..core.batch import run_batch
from ..core.results import TrialSet
from ..core.rng import derive_seed
from ..store import (
    GraphStub,
    SweepJournal,
    resolve_cell,
    resolve_store,
    resolve_sweep_plans,
    sweep_payload,
)
from ..telemetry import span
from .config import ExperimentConfig, GraphCase, ProtocolSpec

__all__ = ["CellResult", "ExperimentResult", "run_trial_set", "run_experiment"]


@dataclass
class CellResult:
    """Results of all trials of one protocol at one sweep point."""

    experiment_id: str
    size_parameter: int
    num_vertices: int
    protocol_label: str
    protocol_name: str
    trials: TrialSet
    summary: Optional[Summary]

    @property
    def mean_time(self) -> Optional[float]:
        """Mean broadcast time over completed trials (None if none completed)."""
        return self.summary.mean if self.summary is not None else None

    @property
    def completion_rate(self) -> float:
        """Fraction of trials that completed within the round budget."""
        return self.trials.completion_rate

    def as_row(self) -> Dict[str, Any]:
        """Flatten into a report-table row."""
        row: Dict[str, Any] = {
            "experiment": self.experiment_id,
            "size": self.size_parameter,
            "n": self.num_vertices,
            "protocol": self.protocol_label,
            "trials": len(self.trials),
            "completed": len(self.trials.completed_results),
        }
        if self.summary is not None:
            row.update(
                {
                    "mean": self.summary.mean,
                    "median": self.summary.median,
                    "max": self.summary.maximum,
                    "ci_low": self.summary.ci_low,
                    "ci_high": self.summary.ci_high,
                }
            )
        else:
            row.update({"mean": None, "median": None, "max": None, "ci_low": None, "ci_high": None})
        return row


@dataclass
class ExperimentResult:
    """All cells of one experiment run, with convenience accessors."""

    config: ExperimentConfig
    cells: List[CellResult] = field(default_factory=list)
    base_seed: int = 0

    def protocol_labels(self) -> List[str]:
        """Distinct protocol labels in configuration order."""
        return [spec.display_label for spec in self.config.protocols]

    def cells_for(self, protocol_label: str) -> List[CellResult]:
        """All cells of one protocol, ordered by sweep size."""
        selected = [c for c in self.cells if c.protocol_label == protocol_label]
        return sorted(selected, key=lambda cell: cell.size_parameter)

    def series(self, protocol_label: str) -> Tuple[List[int], List[float]]:
        """Return ``(vertex counts, mean broadcast times)`` for one protocol.

        Sweep points where no trial completed are skipped (their mean is
        undefined); callers that care about completion should inspect the
        cells directly.
        """
        sizes: List[int] = []
        means: List[float] = []
        for cell in self.cells_for(protocol_label):
            if cell.mean_time is not None:
                sizes.append(cell.num_vertices)
                means.append(cell.mean_time)
        return sizes, means

    def growth_exponent(self, protocol_label: str) -> Optional[float]:
        """Log-log slope of the protocol's mean broadcast time against ``n``."""
        sizes, means = self.series(protocol_label)
        if len(sizes) < 2 or any(m <= 0 for m in means):
            return None
        return power_law_exponent(sizes, means)

    def best_fit(self, protocol_label: str, candidates: Optional[Sequence[str]] = None):
        """Best-fitting named growth model for the protocol's series."""
        sizes, means = self.series(protocol_label)
        if len(sizes) < 2:
            return None
        return best_growth_model(sizes, means, candidates=candidates)

    def table_rows(self) -> List[Dict[str, Any]]:
        """All cells flattened into report-table rows."""
        return [cell.as_row() for cell in sorted(
            self.cells, key=lambda c: (c.size_parameter, c.protocol_label)
        )]


def run_trial_set(
    protocol_spec: ProtocolSpec,
    case: GraphCase,
    *,
    trials: int,
    base_seed: int,
    experiment_id: str = "adhoc",
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    dynamics=None,
    store=None,
    force: bool = False,
) -> TrialSet:
    """Run ``trials`` independent runs of one protocol on one graph case.

    ``dynamics`` attaches a dynamic-topology schedule (any spec accepted by
    :func:`repro.scenarios.resolve_dynamics`) to every trial; it can also
    ride in ``protocol_spec.kwargs["dynamics"]``, and the *spec-level* entry
    wins — a spec that pins its own schedule (e.g. a labeled failure-rate
    cell of the robustness experiments) keeps it even when a sweep-wide
    default is passed, so labels never lie about what ran.  The trial seeds
    do not depend on the schedule, so failure-rate sweeps are seed-paired
    with their failure-free baseline.

    ``store`` enables the content-addressed result cache: ``None`` (default)
    consults the ``REPRO_STORE`` environment variable, ``False`` disables
    caching, and a path / service URL / :class:`~repro.store.ResultStore`
    uses that store (URLs read through a local cache; computed cells land in
    the cache, since the service is read-only).
    The cell is a pure function of its resolved plan (graph structure,
    protocol kwargs, dynamics spec, per-trial seeds, round budget),
    so a cache hit returns a :class:`TrialSet` bit-identical to a recompute;
    ``force=True`` recomputes and overwrites the cached artifact.
    """
    with span("store.resolve", protocol=protocol_spec.name, n=case.graph.num_vertices):
        plan = resolve_cell(
            protocol_spec,
            case,
            trials=trials,
            base_seed=base_seed,
            experiment_id=experiment_id,
            max_rounds=max_rounds,
            record_history=record_history,
            dynamics=dynamics,
        )
    store_obj = resolve_store(store)
    if store_obj is not None and not force:
        with span("store.read", key=plan.key):
            cached = store_obj.get_trial_set(plan.key)
        if cached is not None:
            cached._store_status = ("cached", plan.key)
            return cached

    with span(
        "cell.execute",
        protocol=protocol_spec.name,
        n=case.graph.num_vertices,
        trials=trials,
    ):
        batch = run_batch(
            protocol_spec.name,
            case.graph,
            case.source,
            seeds=list(plan.seeds),
            max_rounds=max_rounds,
            record_history=record_history,
            dynamics=plan.dynamics,
            **plan.kwargs,
        )
        trial_set = batch.to_trial_set()

    # "batched" keeps stored artifacts and run metadata as they were: they
    # record the execution path that produced them, and only one remains.
    trial_set.backend = "batched"
    for result in trial_set.results:
        # Which state representation the kernels engaged ("sparse"/"dense");
        # informational only — the two are bit-identical.
        result.metadata["frontier"] = batch.frontier_resolved
        result.metadata["backend"] = "batched"
    if store_obj is not None:
        with span("store.write", key=plan.key):
            store_obj.put_trial_set(plan.key, trial_set, cell=plan.payload)
        trial_set._store_status = ("computed", plan.key)
    return trial_set


def _materialize_case(case_payload: Tuple) -> GraphCase:
    """Resolve a cell task's graph payload into a :class:`GraphCase`.

    ``("case", case)`` ships an already-built case; ``("build", (builder,
    size, seed))`` defers construction to the worker, which keeps the parent
    from holding (and serializing) every sweep graph when the configuration's
    builder is picklable.  Builders are deterministic functions of
    ``(size, seed)``, so a deferred build yields the same graph everywhere.
    """
    kind, payload = case_payload
    if kind == "case":
        return payload
    builder, size_parameter, case_seed = payload
    with span("graph.build", size=size_parameter):
        return builder(size_parameter, case_seed)


def _run_cell(task: Tuple) -> CellResult:
    """Run one (size, protocol) cell; the unit of work of the cell scheduler.

    The payload carries the graph payload plus plain data (spec, trial count,
    budget) rather than the :class:`ExperimentConfig` itself — configs hold
    non-picklable ``max_rounds`` lambdas, while cases and specs cross a spawn
    boundary cleanly.  All seeds are re-derived inside :func:`run_trial_set`
    from the same components as the serial path, so cell results do not
    depend on where (or in which order) they execute.
    """
    (
        experiment_id,
        base_seed,
        spec,
        case_payload,
        size_parameter,
        trials,
        budget,
        dynamics,
        store,
        force,
    ) = task
    case = _materialize_case(case_payload)
    trial_set = run_trial_set(
        spec,
        case,
        trials=trials,
        base_seed=base_seed,
        experiment_id=experiment_id,
        max_rounds=budget,
        dynamics=dynamics,
        store=store if store is not None else False,
        force=force,
    )
    return CellResult(
        experiment_id=experiment_id,
        size_parameter=size_parameter,
        num_vertices=case.num_vertices,
        protocol_label=spec.display_label,
        protocol_name=spec.name,
        trials=trial_set,
        summary=summarize_trials(trial_set),
    )


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument: None/0 → serial, negative → CPU count."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return max(workers, 1)


def run_experiment(
    config: ExperimentConfig,
    *,
    base_seed: int = 0,
    sizes: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
    workers: Optional[int] = None,
    dynamics=None,
    store=None,
    force: bool = False,
) -> ExperimentResult:
    """Run a full experiment sweep.

    ``sizes`` and ``trials`` override the configuration (used by tests and
    benchmarks to run scaled-down versions of the registered experiments);
    ``dynamics`` is forwarded to :func:`run_trial_set` for every cell (a
    dynamic-topology spec applied as the default for every cell; specs that
    carry their own ``kwargs["dynamics"]`` keep it).

    ``workers`` schedules the (size, protocol) cells on a process pool of that
    many workers (``-1`` = one per CPU), stacking multi-core scaling on top of
    the within-cell batching.  The pool uses the ``spawn`` start method (safe
    with threaded BLAS in forked children) and every worker derives its cell's
    seeds exactly as the serial path does, so results are identical to
    ``workers=1``.

    ``store`` / ``force`` enable the content-addressed result cache (see
    :func:`run_trial_set` for the resolution rules).  With a store, the sweep
    becomes **resumable**: every finished cell is persisted the moment it
    completes (workers persist from their own process), a journal under
    ``sweeps/`` in the store root records per-cell progress, and a rerun of
    the same sweep executes only the cells the store does not already hold —
    returning an :class:`ExperimentResult` bit-identical to an uncached,
    uninterrupted serial run.

    Warm reruns are additionally **zero-construction**: the sweep journal's
    manifest records a versioned builder spec and trusted fingerprint per
    sweep point (see :func:`repro.store.orchestrator.resolve_sweep_plans`),
    so cells the store already holds resolve their keys from stubs and never
    rebuild a graph; construction happens only for cells that actually
    simulate.
    """
    sweep = tuple(sizes) if sizes is not None else config.sizes
    num_trials = int(trials) if trials is not None else config.trials
    result = ExperimentResult(config=config, base_seed=base_seed)

    store_obj = resolve_store(store)
    if store_obj is None:
        return _run_storeless(
            config,
            result,
            base_seed=base_seed,
            sweep=sweep,
            num_trials=num_trials,
            workers=workers,
            dynamics=dynamics,
            force=force,
        )

    journal = SweepJournal(
        store_obj,
        sweep_payload(
            config,
            base_seed=base_seed,
            sizes=sweep,
            trials=num_trials,
            dynamics=dynamics,
        ),
    )
    manifest_entries = None
    if not force:
        manifest_event = journal.last_manifest()
        if manifest_event is not None:
            manifest_entries = manifest_event.get("cells")
    plans = resolve_sweep_plans(
        config,
        base_seed=base_seed,
        sizes=sweep,
        trials=num_trials,
        dynamics=dynamics,
        manifest=manifest_entries,
    )
    journal.start(cells=len(plans))
    new_manifest = [sp.manifest_entry() for sp in plans]
    if manifest_entries != new_manifest:
        # Only append a manifest when the cell set actually changed (first
        # run, version bump, different sweep): warm reruns stay one
        # journal line per cell instead of growing by a manifest each.
        journal.manifest(cells=new_manifest)

    cells: Dict[int, CellResult] = {}
    pending = []
    for sp in plans:
        cached = None if force else store_obj.get_trial_set(sp.plan.key)
        if cached is None:
            pending.append(sp)
            continue
        cached._store_status = ("cached", sp.plan.key)
        cells[sp.index] = CellResult(
            experiment_id=config.experiment_id,
            size_parameter=sp.size_parameter,
            num_vertices=int(sp.plan.graph.num_vertices),
            protocol_label=sp.protocol_label,
            protocol_name=sp.spec.name,
            trials=cached,
            summary=summarize_trials(cached),
        )

    pool_size = min(resolve_workers(workers), max(len(pending), 1))
    # When the builder itself crosses the spawn boundary, workers build their
    # own graphs: each task payload stays a few hundred bytes instead of a
    # full CSR graph per cell.  Unpicklable builders (lambdas, closures) fall
    # back to shipping the built case.  A pending plan resolved from a
    # trusted manifest holds only a stub, so its graph must be (re)built —
    # deferred to the worker when possible, in the parent otherwise.
    defer_build = False
    if pool_size > 1:
        try:
            pickle.dumps(config.graph_builder)
            defer_build = True
        except Exception:
            defer_build = False

    tasks = []
    rebuilt_cases: Dict[int, GraphCase] = {}
    for sp in pending:
        if defer_build:
            case_payload = ("build", (config.graph_builder, sp.size_parameter, sp.case_seed))
        elif isinstance(sp.plan.graph, GraphStub):
            if sp.size_parameter not in rebuilt_cases:
                rebuilt_cases[sp.size_parameter] = config.build_case(
                    sp.size_parameter, sp.case_seed
                )
            case_payload = ("case", rebuilt_cases[sp.size_parameter])
        else:
            case_payload = (
                "case",
                GraphCase(
                    graph=sp.plan.graph,
                    source=sp.plan.source,
                    size_parameter=sp.size_parameter,
                ),
            )
        tasks.append(
            (
                config.experiment_id,
                base_seed,
                sp.spec,
                case_payload,
                sp.size_parameter,
                num_trials,
                sp.budget,
                dynamics,
                store_obj,
                force,
            )
        )

    def collect(sp, cell: CellResult) -> None:
        cells[sp.index] = cell
        status, key = getattr(cell.trials, "_store_status", ("computed", ""))
        journal.cell(
            index=sp.index,
            size=cell.size_parameter,
            protocol=cell.protocol_label,
            key=key,
            status=status,
        )

    # Journal the cache hits first (index order), then the computed cells as
    # they finish; readers key on the cell index/key, not the line order.
    for index in sorted(cells):
        cell = cells[index]
        journal.cell(
            index=index,
            size=cell.size_parameter,
            protocol=cell.protocol_label,
            key=cell.trials._store_status[1],
            status="cached",
        )

    if pool_size > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=pool_size, mp_context=get_context("spawn")
        ) as pool:
            # Submission order == serial order, so collecting in submission
            # order reassembles the exact serial cell sequence.
            futures = [pool.submit(_run_cell, task) for task in tasks]
            for sp, future in zip(pending, futures):
                collect(sp, future.result())
    else:
        for sp, task in zip(pending, tasks):
            collect(sp, _run_cell(task))
    journal.finish()
    result.cells = [cells[index] for index in sorted(cells)]
    return result


def _run_storeless(
    config: ExperimentConfig,
    result: ExperimentResult,
    *,
    base_seed: int,
    sweep: Tuple[int, ...],
    num_trials: int,
    workers: Optional[int],
    dynamics,
    force: bool,
) -> ExperimentResult:
    """The store-less sweep path: build, run, collect — no keys, no journal.

    Kept separate from the store path so runs that never need a cell key do
    not pay for key resolution, and so ``defer_build`` can keep the parent
    from ever materializing the sweep's graphs when a pool is used.
    """
    pool_size = min(resolve_workers(workers), len(sweep) * len(config.protocols))
    defer_build = False
    if pool_size > 1:
        try:
            pickle.dumps(config.graph_builder)
            defer_build = True
        except Exception:
            defer_build = False

    tasks = []
    for size_parameter in sweep:
        case_seed = derive_seed(base_seed, config.experiment_id, "graph", size_parameter)
        if defer_build:
            case_payload = ("build", (config.graph_builder, size_parameter, case_seed))
        else:
            case_payload = ("case", config.build_case(size_parameter, case_seed))
        budget = config.round_budget(size_parameter)
        for spec in config.protocols:
            tasks.append(
                (
                    config.experiment_id,
                    base_seed,
                    spec,
                    case_payload,
                    size_parameter,
                    num_trials,
                    budget,
                    dynamics,
                    None,
                    force,
                )
            )

    if pool_size > 1:
        with ProcessPoolExecutor(
            max_workers=pool_size, mp_context=get_context("spawn")
        ) as pool:
            # Submission order == serial order, so collecting in submission
            # order reassembles the exact serial cell sequence.
            futures = [pool.submit(_run_cell, task) for task in tasks]
            for future in futures:
                result.cells.append(future.result())
    else:
        for task in tasks:
            result.cells.append(_run_cell(task))
    return result
