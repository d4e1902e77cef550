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

A sweep has one path, with or without a store and whatever ``workers``
is: ``run_experiment`` resolves every cell's plan up front
(:func:`~repro.store.resolve_sweep_plans`), reads each cell from the store
once, and runs the rest.  A sweep point's graph is built once, in the
process that resolves the plans, and pool workers receive it: with
``workers=N`` each (size, protocol) cell is one task on a spawn-safe process
pool carrying its plan and its graph case, and every seed is derived exactly
as the serial path does, so the result is bit-identical to ``workers=1``.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.scaling import best_growth_model, power_law_exponent
from ..analysis.statistics import Summary, summarize_trials
from ..core.batch import run_batch
from ..core.results import TrialSet
from ..store import (
    GraphStub,
    SweepCellPlan,
    SweepJournal,
    resolve_cell,
    resolve_store,
    resolve_sweep_plans,
    sweep_payload,
    sweep_shape,
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

    @classmethod
    def from_plan(cls, experiment_id: str, sp: SweepCellPlan, trials: TrialSet) -> "CellResult":
        """The cell of resolved sweep plan ``sp``, whether read or run."""
        return cls(
            experiment_id=experiment_id,
            size_parameter=sp.size_parameter,
            num_vertices=int(sp.plan.graph.num_vertices),
            protocol_label=sp.protocol_label,
            protocol_name=sp.spec.name,
            trials=trials,
            summary=summarize_trials(trials),
        )

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


def _run_cell(
    sp: SweepCellPlan, case: GraphCase, *, experiment_id: str, base_seed: int, store, force: bool
) -> TrialSet:
    """Run one resolved sweep cell on ``case``; the unit of work of the cell
    scheduler and of ``repro worker``.

    The cell's seeds are re-derived inside :func:`run_trial_set` from the
    same components its plan was resolved from, so the trial set does not
    depend on where (or in which order) the cell executes.
    """
    return run_trial_set(
        sp.spec,
        case,
        trials=len(sp.plan.seeds),
        base_seed=base_seed,
        experiment_id=experiment_id,
        max_rounds=sp.budget,
        dynamics=sp.plan.dynamics,
        store=store,
        force=force,
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
    ``workers=1``.  Each sweep point's graph is built once, in this process,
    and the workers receive it with their cells.

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
    rebuild a graph; a sweep point is built only when one of its cells
    actually simulates.
    """
    sweep, num_trials = sweep_shape(config, sizes, trials)
    shape = dict(base_seed=base_seed, sizes=sweep, trials=num_trials, dynamics=dynamics)
    store_obj = resolve_store(store)
    journal = None
    if store_obj is None:
        plans = resolve_sweep_plans(config, **shape)
    else:
        journal, manifest_entries, plans = journaled_sweep_plans(
            config, store_obj, force=force, **shape
        )
        journal.start(cells=len(plans))
        new_manifest = [sp.manifest_entry() for sp in plans]
        if manifest_entries != new_manifest:
            # Only append a manifest when the cell set actually changed (first
            # run, version bump, different sweep): warm reruns stay one
            # journal line per cell instead of growing by a manifest each.
            journal.manifest(cells=new_manifest)

    cells: Dict[int, CellResult] = {}

    def collect(sp: SweepCellPlan, trial_set: TrialSet) -> None:
        cells[sp.index] = CellResult.from_plan(config.experiment_id, sp, trial_set)
        if journal is not None:
            status, key = trial_set.store_status
            journal.cell(
                index=sp.index,
                size=sp.size_parameter,
                protocol=sp.protocol_label,
                key=key,
                status=status,
            )

    # The one store read of every cell.  The hits are journaled first (index
    # order), then the computed cells as they finish; readers key on the cell
    # index/key, not the line order.
    pending: List[SweepCellPlan] = []
    for sp in plans:
        cached = None if store_obj is None or force else store_obj.get_trial_set(sp.plan.key)
        if cached is None:
            pending.append(sp)
        else:
            cached._store_status = ("cached", sp.plan.key)
            collect(sp, cached)

    # A plan resolved from a trusted manifest holds a stub graph: its sweep
    # point is built here, once, and shipped to whichever process runs it.
    built: Dict[int, GraphCase] = {}
    for sp in pending:
        if isinstance(sp.plan.graph, GraphStub) and sp.size_parameter not in built:
            built[sp.size_parameter] = config.build_case(sp.size_parameter, sp.case_seed)
    cases = [built.get(sp.size_parameter) or sp.case for sp in pending]
    # Pending cells are known misses: they run without a second read.
    run = partial(
        _run_cell,
        experiment_id=config.experiment_id,
        base_seed=base_seed,
        store=store_obj if store_obj is not None else False,
        force=True,
    )
    pool_size = min(resolve_workers(workers), len(pending))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size, mp_context=get_context("spawn")) as pool:
            # ``map`` yields in submission order, which is the serial order.
            for sp, trial_set in zip(pending, pool.map(run, pending, cases)):
                collect(sp, trial_set)
    else:
        for sp, case in zip(pending, cases):
            collect(sp, run(sp, case))
    if journal is not None:
        journal.finish()
    result = ExperimentResult(config=config, base_seed=base_seed)
    result.cells = [cells[index] for index in sorted(cells)]
    return result


def journaled_sweep_plans(
    config: ExperimentConfig,
    store_obj,
    *,
    base_seed: int = 0,
    sizes: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
    dynamics=None,
    force: bool = False,
) -> Tuple[SweepJournal, Optional[List[Dict[str, Any]]], List[SweepCellPlan]]:
    """``(journal, manifest, plans)`` of a store-backed sweep.

    The plans resolve against the manifest of the sweep's own journal, so a
    warm sweep or report derives every key from trusted fingerprints without
    constructing a graph; ``force`` ignores the manifest (it is then None).
    """
    sweep, num_trials = sweep_shape(config, sizes, trials)
    shape = dict(base_seed=base_seed, sizes=sweep, trials=num_trials, dynamics=dynamics)
    journal = SweepJournal(store_obj, sweep_payload(config, **shape))
    event = None if force else journal.last_manifest()
    manifest = event.get("cells") if event is not None else None
    return journal, manifest, resolve_sweep_plans(config, manifest=manifest, **shape)
