"""Cell-plan resolution: the single source of truth for "what would run".

:func:`resolve_cell` performs exactly the resolution steps
:func:`repro.experiments.runner.run_trial_set` performs before touching a
kernel — spec-level dynamics override and per-trial seed derivation — and
condenses them into a :class:`CellPlan` whose ``key`` addresses the cell in
a :class:`~repro.store.artifacts.ResultStore`.  The runner executes plans;
the reporting layer (and ``repro store`` tooling) only *derives* them, which
is how figures and tables regenerate from the store without recomputing
anything: same resolution, same key, same bits.

Warm starts resolve keys *without building graphs*: when a caller passes a
previous run's sweep-journal manifest, :func:`resolve_sweep_plans` checks
each entry's recorded builder spec against the one it recomputes from the
versioned builder registry (:mod:`repro.graphs.builders`) and, on a match,
plans the cell around a :class:`GraphStub` carrying the manifest's trusted
fingerprint — zero CSR arrays are materialized for cells that end up cache
hits.  Set ``REPRO_VERIFY_MANIFEST=1`` to re-build and re-fingerprint every
trusted entry anyway (:class:`ManifestMismatchError` on disagreement).

This module deliberately does not import the runner, so the dependency flow
stays one-way: ``experiments.runner -> store -> core/graphs``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..core.batch import trial_seeds
from ..graphs.graph import Graph
from ..telemetry import span
from .artifacts import StoreError
from .keys import cell_key, dynamics_spec, graph_fingerprint, trial_cell_payload

if TYPE_CHECKING:  # imported for annotations only — the experiments package
    # imports this module at runtime, so a runtime import would be circular.
    from ..experiments.config import ExperimentConfig, GraphCase, ProtocolSpec

__all__ = [
    "CellPlan",
    "GraphStub",
    "ManifestMismatchError",
    "SweepCellPlan",
    "resolve_cell",
    "resolve_sweep_plans",
    "sweep_payload",
    "sweep_shape",
]


class ManifestMismatchError(StoreError):
    """A manifest-trusted graph record disagrees with an actual rebuild.

    Only raised in the ``REPRO_VERIFY_MANIFEST=1`` paranoia mode: normal
    operation never *needs* the check, because a manifest entry is only
    trusted when its recorded builder spec (family, params, builder version,
    case revision) matches the one recomputed today — a builder change
    without a version bump is the one hole, and this error is how the
    paranoia mode reports it.
    """


@dataclass(frozen=True)
class GraphStub:
    """A graph stand-in carrying everything key derivation needs — no CSR.

    Rides in a :class:`~repro.experiments.config.GraphCase` for cells whose
    fingerprint came from a trusted manifest:
    :func:`~repro.store.keys.graph_fingerprint` short-circuits on the
    ``trusted_fingerprint`` attribute.  Anything that tries to
    *simulate* on a stub fails loudly (there are no adjacency arrays), which
    is exactly the contract: stubs are for cells the store already holds.
    """

    trusted_fingerprint: str
    name: str
    num_vertices: int
    num_edges: int


@dataclass
class CellPlan:
    """Everything needed to execute — or look up — one cell.

    ``kwargs`` is the protocol spec's keyword arguments with the
    ``"dynamics"`` entry removed (it travels separately in ``dynamics``,
    after the spec-level value has overridden any sweep-wide default).

    ``payload`` and ``key`` are computed lazily and cached: hashing the
    graph's CSR arrays and canonicalizing a dynamics spec is cheap next to a
    simulation but not free, and store-less runs (the overwhelmingly common
    hot path in tests and benchmarks) never need a key at all.
    """

    graph: Graph
    source: int
    protocol_name: str
    seeds: Tuple[int, ...]
    kwargs: Dict[str, Any]
    dynamics: Any
    max_rounds: Optional[int] = None
    record_history: bool = False

    @cached_property
    def payload(self) -> Dict[str, Any]:
        """The canonicalizable cell description (see ``trial_cell_payload``)."""
        return trial_cell_payload(
            graph=self.graph,
            source=self.source,
            protocol_name=self.protocol_name,
            protocol_kwargs=self.kwargs,
            dynamics=self.dynamics,
            seeds=self.seeds,
            max_rounds=self.max_rounds,
            record_history=self.record_history,
        )

    @cached_property
    def key(self) -> str:
        """The cell's content address in a result store."""
        with span("store.key", protocol=self.protocol_name):
            return cell_key(self.payload)


def resolve_cell(
    protocol_spec: "ProtocolSpec",
    case: "GraphCase",
    *,
    trials: int,
    base_seed: int,
    experiment_id: str = "adhoc",
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    dynamics: Any = None,
) -> CellPlan:
    """Resolve one (protocol spec, graph case) cell into its executable plan.

    Raises ``ValueError`` for an invalid trial count, exactly
    as :func:`~repro.experiments.runner.run_trial_set` does — callers that
    only derive keys get the same argument validation as callers that run.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")

    kwargs = dict(protocol_spec.kwargs)
    spec_dynamics = kwargs.pop("dynamics", None)
    if spec_dynamics is not None:
        dynamics = spec_dynamics

    seeds = trial_seeds(
        base_seed,
        experiment_id,
        protocol_spec.seed_key,
        case.size_parameter,
        trials=trials,
    )
    return CellPlan(
        graph=case.graph,
        source=case.source,
        protocol_name=protocol_spec.name,
        seeds=tuple(seeds),
        kwargs=kwargs,
        dynamics=dynamics,
        max_rounds=max_rounds,
        record_history=record_history,
    )


@dataclass
class SweepCellPlan:
    """One cell of a sweep, in sweep order: its position, spec and plan.

    ``case_seed`` is the derived graph-construction seed of the cell's sweep
    point and ``builder`` the canonical builder spec (see
    :func:`repro.graphs.builders.builder_spec`) when the experiment's case
    builder declares one — together with the graph record they make the
    manifest entry self-certifying for warm-start trust.
    """

    index: int
    size_parameter: int
    protocol_label: str
    spec: "ProtocolSpec"
    budget: Optional[int]
    plan: CellPlan
    case_seed: Optional[int] = None
    builder: Optional[Dict[str, Any]] = None

    @property
    def case(self) -> "GraphCase":
        """The graph case the plan was resolved from (a stub's, when trusted)."""
        from ..experiments.config import GraphCase

        return GraphCase(self.plan.graph, self.plan.source, self.size_parameter)

    def manifest_entry(self) -> Dict[str, Any]:
        """The cell's row in a sweep manifest (journal ``manifest`` event).

        Beyond the farm's queue-rebuilding fields (``index``/``size``/
        ``protocol``/``key``) the entry records the trust triple of the
        zero-compute warm path: the case seed, the builder spec and the
        graph record (fingerprint, counts, name, source).  A plan resolved
        *from* a trusted manifest round-trips to the identical entry — its
        stub carries the same record — so re-recording a manifest never
        degrades it.
        """
        graph = self.plan.graph
        entry: Dict[str, Any] = {
            "index": self.index,
            "size": self.size_parameter,
            "protocol": self.protocol_label,
            "key": self.plan.key,
            "graph": {
                "fingerprint": graph_fingerprint(graph),
                "name": str(graph.name),
                "num_vertices": int(graph.num_vertices),
                "num_edges": int(graph.num_edges),
                "source": int(self.plan.source),
            },
        }
        if self.case_seed is not None:
            entry["case_seed"] = int(self.case_seed)
        if self.builder is not None:
            entry["builder"] = self.builder
        return entry


def _trusted_stub_case(
    entries: List[Dict[str, Any]],
    *,
    expected_builder: Dict[str, Any],
    case_seed: int,
    size_parameter: int,
) -> Optional["GraphCase"]:
    """Build a stub-backed case from manifest entries of one sweep point.

    Trust requires a complete graph record *and* that the entry's recorded
    builder spec and case seed match what resolution derives today — a
    builder-version (or case-revision) bump, a changed seed derivation or a
    foreign manifest all fail the comparison and fall back to a real build.
    """
    from ..experiments.config import GraphCase

    for entry in entries:
        graph = entry.get("graph")
        if not isinstance(graph, dict):
            continue
        if entry.get("builder") != expected_builder:
            continue
        if entry.get("case_seed") != case_seed:
            continue
        try:
            stub = GraphStub(
                trusted_fingerprint=str(graph["fingerprint"]),
                name=str(graph.get("name", "graph")),
                num_vertices=int(graph["num_vertices"]),
                num_edges=int(graph["num_edges"]),
            )
            source = int(graph["source"])
        except (KeyError, TypeError, ValueError):
            continue
        return GraphCase(graph=stub, source=source, size_parameter=size_parameter)
    return None


def resolve_sweep_plans(
    config: "ExperimentConfig",
    *,
    base_seed: int,
    sizes: Tuple[int, ...],
    trials: int,
    dynamics: Any = None,
    manifest: Optional[Sequence[Dict[str, Any]]] = None,
) -> List[SweepCellPlan]:
    """Resolve every cell of a sweep, in the exact serial execution order.

    Graph seeds are ``derive_seed(base_seed, experiment_id, "graph", size)``
    and each sweep point is built once, for all of its protocols.  This is
    the one resolution step behind running a sweep
    (:func:`~repro.experiments.runner.run_experiment` executes these plans),
    sweep submission (building a farm manifest), worker-side plan
    reconstruction (a leased key must re-resolve to the same plan), and any
    tooling that asks "what would this sweep run".

    ``manifest`` (a previous run's journal manifest entries, see
    :meth:`SweepCellPlan.manifest_entry`) turns on the zero-compute warm
    path: a sweep point whose recorded builder spec and case seed match
    today's derivation is planned around a :class:`GraphStub` with the
    recorded fingerprint instead of building the graph.  The graph is built
    only where trust fails — and, with ``REPRO_VERIFY_MANIFEST=1``, always,
    with the rebuild cross-checked against the record
    (:class:`ManifestMismatchError`).
    """
    from ..core.rng import derive_seed

    case_spec = getattr(config.graph_builder, "case_spec", None)
    verify = os.environ.get("REPRO_VERIFY_MANIFEST", "") == "1"
    by_size: Dict[int, List[Dict[str, Any]]] = {}
    for entry in manifest or ():
        if isinstance(entry, dict) and isinstance(entry.get("size"), int):
            by_size.setdefault(entry["size"], []).append(entry)

    plans: List[SweepCellPlan] = []
    index = 0
    for size_parameter in sizes:
        case_seed = derive_seed(base_seed, config.experiment_id, "graph", size_parameter)
        builder = case_spec(size_parameter, case_seed) if case_spec is not None else None
        case = None
        if builder is not None and size_parameter in by_size:
            case = _trusted_stub_case(
                by_size[size_parameter],
                expected_builder=builder,
                case_seed=case_seed,
                size_parameter=size_parameter,
            )
            if case is not None and verify:
                rebuilt = config.build_case(size_parameter, case_seed)
                stub = case.graph
                if (
                    graph_fingerprint(rebuilt.graph) != stub.trusted_fingerprint
                    or int(rebuilt.source) != int(case.source)
                ):
                    raise ManifestMismatchError(
                        f"manifest record for {config.experiment_id} size "
                        f"{size_parameter} does not match a rebuild: did a "
                        f"builder change land without a version bump?"
                    )
        if case is None:
            with span("graph.build", size=size_parameter):
                case = config.build_case(size_parameter, case_seed)
        budget = config.round_budget(size_parameter)
        for spec in config.protocols:
            plan = resolve_cell(
                spec,
                case,
                trials=trials,
                base_seed=base_seed,
                experiment_id=config.experiment_id,
                max_rounds=budget,
                dynamics=dynamics,
            )
            plans.append(
                SweepCellPlan(
                    index=index,
                    size_parameter=size_parameter,
                    protocol_label=spec.display_label,
                    spec=spec,
                    budget=budget,
                    plan=plan,
                    case_seed=case_seed,
                    builder=builder,
                )
            )
            index += 1
    return plans


def sweep_shape(
    config: "ExperimentConfig", sizes: Optional[Sequence[int]], trials: Optional[int]
) -> Tuple[Tuple[int, ...], int]:
    """The sweep's sizes and trial count: the overrides, else the config's."""
    sweep = tuple(sizes) if sizes is not None else config.sizes
    return sweep, int(trials) if trials is not None else config.trials


def sweep_payload(
    config: "ExperimentConfig",
    *,
    base_seed: int,
    sizes: Tuple[int, ...],
    trials: int,
    dynamics: Any = None,
) -> Dict[str, Any]:
    """Canonical description of a whole sweep — the journal's identity.

    Identifies the sweep by *what is asked for* (experiment id, seed, size
    sweep, trial count, sweep-wide dynamics and the protocol
    labels), not by the per-cell keys: a resumed run must map to the same
    journal before any graph is built.
    """
    labels: List[str] = [spec.display_label for spec in config.protocols]
    return {
        "experiment_id": config.experiment_id,
        "base_seed": int(base_seed),
        "sizes": [int(size) for size in sizes],
        "trials": int(trials),
        # "auto" pins existing sweep ids: it was the default backend option.
        "backend": "auto",
        "dynamics": dynamics_spec(dynamics),
        "protocols": labels,
    }
