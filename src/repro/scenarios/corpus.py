"""Corpus manifests: many scenarios, one resumable store-backed sweep.

A *corpus* is a declarative YAML (or JSON) document naming a set of
scenarios (see :class:`repro.scenarios.spec.ScenarioSpec`); running it is
nothing more than running each scenario's compiled
:class:`~repro.experiments.config.ExperimentConfig` through
:func:`repro.experiments.runner.run_experiment` against one result store —
so the corpus inherits journaling, manifest-trusted zero-construction warm
starts, per-cell resume, process-pool scheduling and farm dispatch without
any new execution machinery.  Multi-rumor contention blocks are the one
addition: they run the :class:`~repro.extensions.multi_rumor` simulator and
cache the outcome as content-addressed *document* cells keyed on the
versioned builder spec (never on a built graph), so warm reruns skip them
without constructing anything either.

Manifest schema
---------------
::

    corpus: example-corpus          # optional corpus name
    defaults:                       # optional; merged into every scenario
      trials: 3
      protocols: [push, push-pull, visit-exchange]
    scenarios:
      - name: communities-sbm      # becomes the experiment id
        graph:                     # spec dict or "kind:key=value" string
          kind: sbm
          num_blocks: 8
          p_in: 0.05
          p_out: 0.001
        sizes: [256, 512, 1024]
        trials: 3
        source: max-degree         # vertex id | zero|max-degree|min-degree|random
        dynamics: bernoulli-edges:rate=0.1,seed=7   # optional, any dynamics spec
        max_rounds: {model: n log n, factor: 40}    # or a plain integer
        rumors:                    # optional multi-rumor contention block
          count: 4                 # rumors injected ...
          interval: 8              # ... every `interval` rounds
          agent_density: 1.0
          trials: 2

``graph.kind: file`` entries take a ``path`` (resolved relative to the
manifest's directory), an optional ``format`` (``edges``/``csv``/``mtx``)
and ``canonicalize`` flag — see :mod:`repro.scenarios.ingest` for the
strictness contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.rng import derive_seed
from ..experiments.config import ExperimentConfig
from ..experiments.registry import register
from ..graphs.graph import Graph
from .spec import ScenarioError, ScenarioSpec, _scenario_from_dict

__all__ = [
    "Corpus",
    "CorpusRunSummary",
    "ScenarioRunSummary",
    "corpus_report",
    "corpus_status",
    "load_corpus",
    "register_corpus",
    "run_corpus",
]


@dataclass(frozen=True)
class Corpus:
    """A loaded corpus manifest: its name, origin path and scenarios."""

    name: str
    path: Optional[str]
    scenarios: Tuple[ScenarioSpec, ...]

    def scenario(self, name: str) -> ScenarioSpec:
        for spec in self.scenarios:
            if spec.name == name:
                return spec
        raise ScenarioError(
            f"corpus {self.name!r} has no scenario {name!r}; it has: "
            + ", ".join(s.name for s in self.scenarios)
        )


def _parse_manifest_text(text: str, path: Path) -> Dict[str, Any]:
    """Parse manifest bytes: JSON by suffix, YAML when importable."""
    suffix = path.suffix.lower()
    if suffix == ".json":
        return json.loads(text)
    try:
        import yaml
    except ImportError:
        # YAML is an optional extra; JSON is the dependency-free fallback.
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise ScenarioError(
                f"{path}: reading YAML manifests requires PyYAML "
                "(pip install 'repro-rumor-spreading[scenarios]') — "
                "or provide the manifest as JSON"
            ) from None
    loaded = yaml.safe_load(text)
    if not isinstance(loaded, dict):
        raise ScenarioError(f"{path}: corpus manifest must be a mapping")
    return loaded


def load_corpus(path) -> Corpus:
    """Load and validate a corpus manifest from a YAML/JSON file.

    Relative ``file`` graph-source paths are resolved against the
    manifest's own directory, so a corpus and its fixtures move together.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"corpus manifest {str(path)!r} does not exist")
    raw = _parse_manifest_text(path.read_text(encoding="utf-8"), path)
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: corpus manifest must be a mapping")
    unknown = sorted(set(raw) - {"corpus", "defaults", "scenarios"})
    if unknown:
        raise ScenarioError(
            f"{path}: unknown top-level key(s): {', '.join(unknown)}"
        )
    entries = raw.get("scenarios")
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(f"{path}: manifest needs a non-empty 'scenarios' list")
    defaults = raw.get("defaults") or {}
    if not isinstance(defaults, dict):
        raise ScenarioError(f"{path}: 'defaults' must be a mapping")
    scenarios: List[ScenarioSpec] = []
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ScenarioError(f"{path}: each scenario entry must be a mapping")
        entry = dict(entry)
        graph = entry.get("graph")
        if isinstance(graph, dict) and graph.get("kind") == "file":
            graph = dict(graph)
            file_path = Path(str(graph.get("path", "")))
            if not file_path.is_absolute():
                graph["path"] = str((path.parent / file_path).resolve())
            entry["graph"] = graph
        spec = _scenario_from_dict(entry, defaults=defaults)
        if spec.name in seen:
            raise ScenarioError(f"{path}: duplicate scenario name {spec.name!r}")
        seen.add(spec.name)
        scenarios.append(spec)
    return Corpus(
        name=str(raw.get("corpus", path.stem)),
        path=str(path),
        scenarios=tuple(scenarios),
    )


def _as_corpus(corpus) -> Corpus:
    if isinstance(corpus, Corpus):
        return corpus
    return load_corpus(corpus)


def register_corpus(corpus) -> List[str]:
    """Register every scenario with the experiment registry (idempotent).

    After this, the scenarios are ordinary experiment ids: ``repro run``,
    ``repro report`` and the store service's ``/report/<id>`` sections all
    see them.  Re-registering under the same name replaces the factory, so
    reloading a manifest is safe.
    """
    corpus = _as_corpus(corpus)
    ids: List[str] = []
    for spec in corpus.scenarios:
        register(spec.name, _ScenarioFactory(spec), replace=True)
        ids.append(spec.name)
    return ids


class _ScenarioFactory:
    """A named factory so registry entries stay introspectable (and picklable)."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    def __call__(self) -> ExperimentConfig:
        return self.spec.to_config()


@dataclass
class ScenarioRunSummary:
    """Per-scenario outcome of one corpus run (or status probe)."""

    name: str
    total_cells: int
    computed: int
    cached: int
    rumor_cells: int = 0
    rumor_computed: int = 0

    @property
    def missing(self) -> int:
        return self.total_cells - self.computed - self.cached

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cells": self.total_cells,
            "computed": self.computed,
            "cached": self.cached,
            "rumor_cells": self.rumor_cells,
            "rumor_computed": self.rumor_computed,
        }


@dataclass
class CorpusRunSummary:
    """Whole-corpus outcome: per-scenario counts plus construction audit."""

    corpus: str
    scenarios: List[ScenarioRunSummary] = field(default_factory=list)
    graph_constructions: int = 0

    @property
    def computed(self) -> int:
        return sum(s.computed + s.rumor_computed for s in self.scenarios)

    @property
    def cached(self) -> int:
        return sum(
            s.cached + (s.rumor_cells - s.rumor_computed) for s in self.scenarios
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "corpus": self.corpus,
            "computed": self.computed,
            "cached": self.cached,
            "graph_constructions": self.graph_constructions,
            "scenarios": [s.as_dict() for s in self.scenarios],
        }


def _select(corpus: Corpus, names: Optional[Sequence[str]]) -> List[ScenarioSpec]:
    if not names:
        return list(corpus.scenarios)
    return [corpus.scenario(name) for name in names]


def _rumor_plan(
    spec: ScenarioSpec,
    config: ExperimentConfig,
    *,
    base_seed: int,
) -> List[Dict[str, Any]]:
    """Derive the multi-rumor document-cell descriptions — no construction.

    One document per sweep size; the cell params embed the versioned
    builder spec (not a graph fingerprint), the derived case seed and the
    per-trial seeds, so the key resolves from the manifest alone and a
    cached document is trusted exactly as far as the builder registry
    vouches for the spec.
    """
    rumors = dict(spec.rumors or {})
    unknown = sorted(
        set(rumors)
        - {"count", "interval", "agent_density", "num_agents", "lazy", "trials", "max_rounds"}
    )
    if unknown:
        raise ScenarioError(
            f"scenario {spec.name!r}: unknown rumors key(s): {', '.join(unknown)}"
        )
    count = int(rumors.get("count", 4))
    interval = int(rumors.get("interval", 8))
    trials = int(rumors.get("trials", spec.trials))
    if count < 1 or interval < 0 or trials < 1:
        raise ScenarioError(
            f"scenario {spec.name!r}: rumors needs count >= 1, interval >= 0, "
            "trials >= 1"
        )
    plans = []
    for size in config.sizes:
        case_seed = derive_seed(base_seed, config.experiment_id, "graph", size)
        builder = config.graph_builder.case_spec(size, case_seed)
        seeds = [
            derive_seed(base_seed, config.experiment_id, "rumors", size, trial)
            for trial in range(trials)
        ]
        params = {
            "scenario": spec.name,
            "size": int(size),
            "case_seed": int(case_seed),
            "builder": builder,
            "seeds": seeds,
            "count": count,
            "interval": interval,
            "agent_density": float(rumors.get("agent_density", 1.0)),
            "num_agents": rumors.get("num_agents"),
            "lazy": bool(rumors.get("lazy", False)),
            "max_rounds": rumors.get("max_rounds"),
        }
        plans.append(params)
    return plans


def _run_rumor_cell(
    params: Dict[str, Any], config: ExperimentConfig
) -> Dict[str, Any]:
    """Execute one multi-rumor document cell (the cold path)."""
    import numpy as np

    from ..extensions.multi_rumor import MultiRumorVisitExchange, RumorInjection

    case = config.build_case(params["size"], params["case_seed"])
    graph = case.graph
    simulator = MultiRumorVisitExchange(
        agent_density=params["agent_density"],
        num_agents=params["num_agents"],
        lazy=params["lazy"],
    )
    trials = []
    for seed in params["seeds"]:
        source_rng = np.random.default_rng([int(seed), 0x10B07])
        injections = [
            RumorInjection(
                round_index=i * params["interval"],
                source=int(source_rng.integers(graph.num_vertices)),
                label=f"rumor-{i}",
            )
            for i in range(params["count"])
        ]
        outcome = simulator.run(
            graph,
            injections,
            seed=seed,
            max_rounds=params["max_rounds"],
        )
        trials.append(
            {
                "seed": int(seed),
                "num_agents": outcome.num_agents,
                "rounds_executed": outcome.rounds_executed,
                "broadcast_times": outcome.broadcast_times,
                "all_completed": outcome.all_completed,
                "mean_broadcast_time": outcome.mean_broadcast_time(),
                "max_broadcast_time": outcome.max_broadcast_time(),
            }
        )
    return {
        "scenario": params["scenario"],
        "size": params["size"],
        "num_vertices": int(graph.num_vertices),
        "count": params["count"],
        "interval": params["interval"],
        "trials": trials,
    }


def _rumor_key(params: Dict[str, Any]) -> str:
    from ..store.keys import cell_key, document_cell_payload

    return cell_key(document_cell_payload("multi-rumor", params))


def run_corpus(
    corpus,
    *,
    store,
    base_seed: int = 0,
    workers: Optional[int] = None,
    force: bool = False,
    names: Optional[Sequence[str]] = None,
) -> CorpusRunSummary:
    """Run (or resume) a corpus against a result store.

    Every scenario compiles to an :class:`ExperimentConfig` and runs
    through :func:`~repro.experiments.runner.run_experiment` — one
    store-backed, journaled, resumable sweep per scenario.  A warm rerun
    recomputes nothing and, thanks to manifest trust, constructs no graphs
    (``graph_constructions`` in the summary counts actual
    :class:`~repro.graphs.Graph` materializations so callers — and CI —
    can assert exactly that).  ``names`` restricts the run to a subset of
    scenarios; ``force`` recomputes even cached cells.
    """
    from ..experiments.runner import run_experiment
    from ..store import resolve_store

    corpus = _as_corpus(corpus)
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ScenarioError("run_corpus needs an enabled result store")
    register_corpus(corpus)

    summary = CorpusRunSummary(corpus=corpus.name)
    constructed_before = Graph.construction_count
    for spec in _select(corpus, names):
        config = spec.to_config()
        result = run_experiment(
            config,
            base_seed=base_seed,
            workers=workers,
            store=store_obj,
            force=force,
        )
        statuses = [
            getattr(cell.trials, "_store_status", ("computed", ""))[0]
            for cell in result.cells
        ]
        row = ScenarioRunSummary(
            name=spec.name,
            total_cells=len(result.cells),
            computed=sum(1 for s in statuses if s == "computed"),
            cached=sum(1 for s in statuses if s == "cached"),
        )
        if spec.rumors is not None:
            for params in _rumor_plan(spec, config, base_seed=base_seed):
                row.rumor_cells += 1
                key = _rumor_key(params)
                if not force and store_obj.get_document(key, kind="multi-rumor") is not None:
                    continue
                document = _run_rumor_cell(params, config)
                store_obj.put_document(key, document, kind="multi-rumor")
                row.rumor_computed += 1
        summary.scenarios.append(row)
    summary.graph_constructions = Graph.construction_count - constructed_before
    return summary


def corpus_status(
    corpus,
    *,
    store,
    base_seed: int = 0,
) -> CorpusRunSummary:
    """Probe which corpus cells a store already holds — zero simulation.

    Cached/missing counts per scenario; resolved through each scenario's
    journaled manifest when one exists, so a warm status probe is also
    zero-construction.
    """
    from ..experiments.reporting import _store_sweep_plans
    from ..store import resolve_store

    corpus = _as_corpus(corpus)
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ScenarioError("corpus_status needs an enabled result store")

    summary = CorpusRunSummary(corpus=corpus.name)
    constructed_before = Graph.construction_count
    for spec in corpus.scenarios:
        config = spec.to_config()
        plans = _store_sweep_plans(config, store_obj, base_seed=base_seed)
        cached = sum(1 for sp in plans if sp.plan.key in store_obj)
        row = ScenarioRunSummary(
            name=spec.name,
            total_cells=len(plans),
            computed=0,
            cached=cached,
        )
        if spec.rumors is not None:
            for params in _rumor_plan(spec, config, base_seed=base_seed):
                row.rumor_cells += 1
                if store_obj.get_document(_rumor_key(params), kind="multi-rumor") is None:
                    row.rumor_computed += 1  # pending, reported as not-cached
        summary.scenarios.append(row)
    summary.graph_constructions = Graph.construction_count - constructed_before
    return summary


def _rumor_markdown(spec: ScenarioSpec, documents: List[Dict[str, Any]]) -> List[str]:
    lines = [
        "",
        "Multi-rumor contention (visit-exchange agents, per-rumor latency):",
        "",
        "| size | n | rumors | mean T | max T | completed |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for doc in documents:
        means = [t["mean_broadcast_time"] for t in doc["trials"]]
        maxes = [t["max_broadcast_time"] for t in doc["trials"]]
        done = all(t["all_completed"] for t in doc["trials"])
        mean = (
            f"{sum(m for m in means if m is not None) / max(sum(1 for m in means if m is not None), 1):.1f}"
            if any(m is not None for m in means)
            else "—"
        )
        peak = (
            str(max(m for m in maxes if m is not None))
            if any(m is not None for m in maxes)
            else "—"
        )
        lines.append(
            f"| {doc['size']} | {doc['num_vertices']} | {doc['count']} | "
            f"{mean} | {peak} | {'yes' if done else 'no'} |"
        )
    lines.append("")
    return lines


def corpus_report(
    corpus,
    *,
    store,
    base_seed: int = 0,
    strict: bool = False,
) -> str:
    """Render the corpus report from the store — zero simulation.

    One Markdown section per scenario family (the standard sweep section
    with its spreading-time table and growth fits), plus a multi-rumor
    table for scenarios that declare contention.  ``strict=True`` raises
    on missing cells; the default renders what the store holds.
    """
    from ..experiments.reporting import experiment_markdown_section_from_store
    from ..store import resolve_store

    corpus = _as_corpus(corpus)
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ScenarioError("corpus_report needs an enabled result store")

    lines = [f"## Scenario corpus `{corpus.name}`", ""]
    for spec in corpus.scenarios:
        config = spec.to_config()
        try:
            section = experiment_markdown_section_from_store(
                config, store_obj, base_seed=base_seed, strict=strict
            )
        except KeyError as exc:
            if strict:
                raise
            section = (
                f"### `{spec.name}` — {config.title}\n\n"
                f"(no cached cells: {exc})\n"
            )
        lines.append(section)
        if spec.rumors is not None:
            documents = []
            for params in _rumor_plan(spec, config, base_seed=base_seed):
                doc = store_obj.get_document(_rumor_key(params), kind="multi-rumor")
                if doc is not None:
                    documents.append(doc)
            if documents:
                lines.extend(_rumor_markdown(spec, documents))
    return "\n".join(lines)
