"""The unified ScenarioSpec resolution layer.

One experiment used to be assembled from per-axis conventions: a registered
``ExperimentConfig`` factory for the graph sweep, a ``dynamics=`` spec
string for topology dynamics, ``resolve_store`` for persistence.  The
scenario layer gives every axis the *same* surface — the spec-dict /
spec-string grammar of :mod:`repro.specs` — and one entry point,
:func:`resolve_scenario`, mirroring :func:`resolve_dynamics` and
:func:`repro.store.resolve_store`:

* a **graph source spec** names a family and its parameters:
  ``{"kind": "sbm", "num_blocks": 8, "p_in": 0.05, "p_out": 0.001}`` or the
  string ``"sbm:num_blocks=8,p_in=0.05,p_out=0.001"``.  Kinds cover every
  registered family — the paper's hand-built graphs, the regular/random
  families, the corpus generators (``powerlaw``, ``sbm``, ``geometric``)
  and ingested files (``file:path=...``);
* a **dynamics spec** is exactly what :func:`resolve_dynamics` accepts;
* a **protocol spec** is a name, a ``"name:key=value"`` string, or a dict
  with optional ``label``/``seed_label`` and keyword arguments.

A :class:`ScenarioSpec` composes the axes (graph × protocols × dynamics ×
sizes × trials × source policy × round budget) under a stable name and
converts to a plain :class:`~repro.experiments.config.ExperimentConfig`
via :meth:`ScenarioSpec.to_config` — from there the existing runner,
store, farm and reporting machinery applies unchanged.  The generated
case builder is the same :class:`~repro.experiments.config.CaseBuilder` the
registered experiments use, building through the family table
(:mod:`repro.graphs.builders`), so scenario sweeps keep the
zero-construction warm start; like every sweep, a scenario sweep builds each
sweep point once, in the process that resolves its plans, and pool workers
receive it.

The source-vertex policy is recorded *inside* the builder-spec params
(key ``"source"``): changing the policy changes the spec, so a stale
manifest can never smuggle an old source vertex into new cell keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..experiments.config import CaseBuilder, ExperimentConfig, ProtocolSpec
from ..graphs.dynamic import TopologySchedule, _resolve_dynamics
from ..graphs.graph import Graph
from ..specs import SpecError, parse_spec_string
from .ingest import file_builder_params, ingest_graph

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "graph_source_kinds",
    "resolve_dynamics",
    "resolve_graph_spec",
    "resolve_scenario",
]

#: Bump when the scenario case builder's derivation (source resolution,
#: option → parameter mapping) changes; invalidates manifest trust for
#: every scenario, never results.
CASE_REVISION = 1

_SOURCE_POLICIES = ("zero", "max-degree", "min-degree", "random")


class ScenarioError(ValueError):
    """A scenario spec, graph-source spec or protocol spec is invalid."""


def resolve_dynamics(spec) -> Optional[TopologySchedule]:
    """Resolve a dynamics spec into a schedule — the public entry point.

    Accepts ``None``, a schedule instance, a spec dict or a spec string and
    returns the schedule; see :mod:`repro.graphs.dynamic` for the kinds.
    """
    return _resolve_dynamics(spec)


def resolve_store(store):
    """Re-exported :func:`repro.store.resolve_store` (one import surface)."""
    from ..store import resolve_store as _resolve_store

    return _resolve_store(store)


# ---------------------------------------------------------------------------
# Graph-source kinds
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _GraphKind:
    """One resolvable graph-source kind.

    ``derive(options, size, seed)`` maps a scenario's graph options plus
    one sweep point to the family's canonical builder params — without
    building anything (the warm path calls only this); the family table
    builds from those params.
    """

    family: str
    options: Tuple[str, ...]
    derive: Callable[[Dict[str, Any], int, int], Dict[str, Any]]


def _erdos_renyi_derive(options, size, seed):
    if "edge_probability" in options:
        p = float(options["edge_probability"])
    elif "avg_degree" in options:
        p = min(float(options["avg_degree"]) / max(size - 1, 1), 1.0)
    else:
        raise ScenarioError(
            "erdos-renyi needs 'edge_probability' or 'avg_degree'"
        )
    return {"num_vertices": size, "edge_probability": p, "seed": seed}


def _geometric_derive(options, size, seed):
    if "radius" in options:
        radius = float(options["radius"])
    elif "avg_degree" in options:
        radius = math.sqrt(float(options["avg_degree"]) / (math.pi * size))
    else:
        raise ScenarioError("geometric needs 'radius' or 'avg_degree'")
    return {"num_vertices": size, "radius": radius, "seed": seed}


def _powerlaw_derive(options, size, seed):
    params = {
        "num_vertices": size,
        "exponent": float(options.get("exponent", 2.5)),
        "min_degree": int(options.get("min_degree", 2)),
        "seed": seed,
    }
    if "max_degree" in options:
        params["max_degree"] = int(options["max_degree"])
    return params


def _sbm_derive(options, size, seed):
    return {
        "num_vertices": size,
        "num_blocks": int(options.get("num_blocks", 4)),
        "p_in": float(options["p_in"]),
        "p_out": float(options["p_out"]),
        "seed": seed,
    }


def _file_derive(options, size, seed):
    if "path" not in options:
        raise ScenarioError("file graph source needs a 'path'")
    return file_builder_params(
        options["path"],
        format=str(options.get("format", "auto")),
        canonicalize=bool(options.get("canonicalize", False)),
    )


def _file_build(path, params):
    # The file family's params name the content, not the path, so its build
    # is the one that is not a function of the params alone.
    return ingest_graph(path, format=params["format"], canonicalize=params["canonicalize"])


def _size_kind(family, size_key):
    return _GraphKind(family, (), lambda options, size, seed: {size_key: size})


_GRAPH_KINDS: Dict[str, _GraphKind] = {
    "star": _size_kind("star", "num_leaves"),
    "double-star": _size_kind("double_star", "num_vertices"),
    "heavy-tree": _size_kind("heavy_binary_tree", "num_vertices"),
    "siamese-tree": _size_kind("siamese_heavy_binary_tree", "tree_vertices"),
    "cycle-stars-cliques": _size_kind("cycle_of_stars_of_cliques", "k"),
    "complete": _size_kind("complete_graph", "num_vertices"),
    "cycle": _size_kind("cycle_graph", "num_vertices"),
    "hypercube": _size_kind("hypercube", "dimension"),
    "torus": _GraphKind(
        family="torus_grid",
        options=("cols",),
        derive=lambda options, size, seed: {
            "rows": size,
            "cols": int(options.get("cols", size)),
        },
    ),
    "random-regular": _GraphKind(
        family="random_regular_graph",
        options=("degree",),
        derive=lambda options, size, seed: {
            "num_vertices": size,
            "degree": int(options.get("degree", 4)),
            "seed": seed,
        },
    ),
    "erdos-renyi": _GraphKind(
        family="erdos_renyi",
        options=("edge_probability", "avg_degree"),
        derive=_erdos_renyi_derive,
    ),
    "preferential-attachment": _GraphKind(
        family="preferential_attachment",
        options=("edges_per_vertex",),
        derive=lambda options, size, seed: {
            "num_vertices": size,
            "edges_per_vertex": int(options.get("edges_per_vertex", 2)),
            "seed": seed,
        },
    ),
    "powerlaw": _GraphKind(
        family="powerlaw_configuration",
        options=("exponent", "min_degree", "max_degree"),
        derive=_powerlaw_derive,
    ),
    "sbm": _GraphKind(
        family="stochastic_block_model",
        options=("num_blocks", "p_in", "p_out"),
        derive=_sbm_derive,
    ),
    "geometric": _GraphKind(
        family="random_geometric",
        options=("radius", "avg_degree"),
        derive=_geometric_derive,
    ),
    "file": _GraphKind(
        family="file",
        options=("path", "format", "canonicalize"),
        derive=_file_derive,
    ),
}


def graph_source_kinds() -> Tuple[str, ...]:
    """Every resolvable graph-source kind, sorted."""
    return tuple(sorted(_GRAPH_KINDS))


def resolve_graph_spec(spec) -> Dict[str, Any]:
    """Normalize a graph-source spec (dict or spec string) to a spec dict.

    Validates the kind and rejects unknown options loudly — a typo in a
    manifest must fail at load time, not silently change the instance.
    """
    if isinstance(spec, str):
        try:
            spec = parse_spec_string(spec)
        except SpecError as exc:
            raise ScenarioError(f"malformed graph spec: {exc}") from None
    if not isinstance(spec, dict):
        raise ScenarioError(
            "graph source must be a spec dict or spec string, got "
            f"{type(spec).__name__}"
        )
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _GRAPH_KINDS:
        raise ScenarioError(
            f"unknown graph source kind {kind!r}; known kinds: "
            + ", ".join(graph_source_kinds())
        )
    allowed = set(_GRAPH_KINDS[kind].options)
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ScenarioError(
            f"graph source {kind!r} got unknown option(s) "
            f"{', '.join(unknown)}; allowed: "
            + (", ".join(sorted(allowed)) if allowed else "(none)")
        )
    return {"kind": kind, **spec}


def _resolve_source_vertex(policy, graph: Graph, params, case_seed: int) -> int:
    """A scenario's source rule: a vertex id or a named policy."""
    if isinstance(policy, bool):
        raise ScenarioError(f"invalid source policy {policy!r}")
    if isinstance(policy, int):
        if not 0 <= policy < graph.num_vertices:
            raise ScenarioError(
                f"source vertex {policy} out of range for n={graph.num_vertices}"
            )
        return policy
    degrees = np.diff(graph.indptr)
    if policy == "zero":
        return 0
    if policy == "max-degree":
        return int(degrees.argmax())
    if policy == "min-degree":
        return int(degrees.argmin())
    if policy == "random":
        rng = np.random.default_rng([int(case_seed), 0x5CE7A110])
        return int(rng.integers(graph.num_vertices))
    raise ScenarioError(
        f"unknown source policy {policy!r}; expected a vertex id or one of "
        + ", ".join(_SOURCE_POLICIES)
    )


def _scenario_params(kind: str, options: Dict[str, Any], source, size: int, seed: int):
    """A scenario's params rule: the kind's derived params plus the source
    policy, so a changed policy changes the spec and no stale manifest can
    smuggle an old source vertex into new cell keys."""
    params = _GRAPH_KINDS[kind].derive(options, size, seed)
    params["source"] = source
    return params


def _scenario_case_builder(kind: str, options: Dict[str, Any], source) -> CaseBuilder:
    """The case builder a scenario compiles to: plain data and partials over
    module-level functions, so it crosses the runner's spawn boundary."""
    return CaseBuilder(
        _GRAPH_KINDS[kind].family,
        partial(_scenario_params, kind, dict(options), source),
        source=partial(_resolve_source_vertex, source),
        case_revision=CASE_REVISION,
        build=partial(_file_build, options["path"]) if kind == "file" else None,
    )


class _RoundBudget:
    """A picklable round-budget formula over the size parameter.

    ``model`` is one of ``constant``, ``log n``, ``n``, ``n log n`` or
    ``n^2`` — evaluated on the *size parameter* (for ``file`` scenarios,
    whose size parameter is nominal, give an integer budget or none at
    all).
    """

    MODELS = ("constant", "log n", "n", "n log n", "n^2")

    def __init__(self, model: str, factor: float) -> None:
        if model not in self.MODELS:
            raise ScenarioError(
                f"unknown round-budget model {model!r}; expected one of "
                + ", ".join(self.MODELS)
            )
        self.model = model
        self.factor = float(factor)

    def __call__(self, size: int) -> int:
        n = max(int(size), 2)
        value = {
            "constant": 1.0,
            "log n": math.log(n),
            "n": float(n),
            "n log n": n * math.log(n),
            "n^2": float(n) ** 2,
        }[self.model]
        return max(int(self.factor * value), 1)


def _resolve_max_rounds(value):
    if value is None:
        return None
    if isinstance(value, _RoundBudget):
        return value
    if isinstance(value, int):
        return _RoundBudget("constant", value)
    if isinstance(value, dict):
        extra = sorted(set(value) - {"model", "factor"})
        if extra:
            raise ScenarioError(
                f"max_rounds got unknown key(s) {', '.join(extra)}; "
                "expected 'model' and 'factor'"
            )
        return _RoundBudget(str(value.get("model", "n")), float(value.get("factor", 1)))
    raise ScenarioError(
        "max_rounds must be an int, a {'model', 'factor'} dict or null"
    )


def _resolve_protocol(spec) -> ProtocolSpec:
    """Normalize one protocol spec (name, spec string, or dict)."""
    if isinstance(spec, ProtocolSpec):
        return spec
    if isinstance(spec, str):
        try:
            spec = parse_spec_string(spec)
        except SpecError as exc:
            raise ScenarioError(f"malformed protocol spec: {exc}") from None
    if not isinstance(spec, dict):
        raise ScenarioError(
            f"protocol must be a name, spec string or dict, got {type(spec).__name__}"
        )
    spec = dict(spec)
    name = spec.pop("kind", None) or spec.pop("name", None)
    if not name:
        raise ScenarioError("protocol spec needs a 'kind' (the protocol name)")
    spec.pop("name", None)
    label = spec.pop("label", None)
    seed_label = spec.pop("seed_label", None)
    kwargs = dict(spec.pop("kwargs", {}))
    kwargs.update(spec)
    return ProtocolSpec(str(name), kwargs=kwargs, label=label, seed_label=seed_label)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: graph source × protocols × dynamics × sweep.

    The declarative unit of the corpus manifest format (see
    :mod:`repro.scenarios.corpus` for the YAML/JSON schema).  ``graph`` is
    a normalized graph-source spec dict; ``dynamics`` is anything
    :func:`resolve_dynamics` accepts (kept in spec form — specs pickle,
    schedules resolve per cell); ``source`` is a vertex id or one of
    ``zero``/``max-degree``/``min-degree``/``random``; ``rumors`` is an
    optional multi-rumor contention block handled by the corpus runner
    (document cells, not sweep cells).
    """

    name: str
    graph: Dict[str, Any]
    protocols: Tuple[ProtocolSpec, ...]
    sizes: Tuple[int, ...]
    trials: int = 3
    dynamics: Any = None
    source: Any = "zero"
    max_rounds: Any = None
    title: str = ""
    description: str = ""
    notes: str = ""
    rumors: Optional[Dict[str, Any]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_config(self) -> ExperimentConfig:
        """Compile to a plain :class:`ExperimentConfig` (runner-ready)."""
        graph = resolve_graph_spec(self.graph)
        kind = graph.pop("kind")
        protocols = []
        for proto in self.protocols:
            if self.dynamics is not None and "dynamics" not in proto.kwargs:
                merged = dict(proto.kwargs)
                merged["dynamics"] = self.dynamics
                proto = ProtocolSpec(
                    proto.name,
                    kwargs=merged,
                    label=proto.label,
                    seed_label=proto.seed_label,
                )
            protocols.append(proto)
        return ExperimentConfig(
            experiment_id=self.name,
            title=self.title or f"Scenario {self.name} ({kind})",
            paper_reference="scenario corpus",
            description=self.description
            or f"Corpus scenario on the {kind} graph source.",
            graph_builder=_scenario_case_builder(kind, graph, self.source),
            sizes=tuple(int(s) for s in self.sizes),
            protocols=tuple(protocols),
            trials=int(self.trials),
            max_rounds=_resolve_max_rounds(self.max_rounds),
            notes=self.notes,
        )


def _scenario_from_dict(raw: Dict[str, Any], *, defaults: Optional[Dict[str, Any]] = None) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from one manifest entry."""
    known = {
        "name", "graph", "protocols", "sizes", "trials", "dynamics",
        "source", "max_rounds", "title", "description", "notes", "rumors",
        "metadata",
    }
    merged: Dict[str, Any] = dict(defaults or {})
    merged.update(raw)
    unknown = sorted(set(merged) - known)
    if unknown:
        raise ScenarioError(
            f"scenario entry has unknown key(s): {', '.join(unknown)}"
        )
    name = merged.get("name")
    if not name or not isinstance(name, str):
        raise ScenarioError("every scenario needs a non-empty string 'name'")
    if "graph" not in merged:
        raise ScenarioError(f"scenario {name!r} has no 'graph' source spec")
    graph = resolve_graph_spec(merged["graph"])
    protocols = merged.get("protocols") or ("push", "push-pull", "visit-exchange")
    if isinstance(protocols, (str, dict)):
        protocols = (protocols,)
    resolved_protocols = tuple(_resolve_protocol(p) for p in protocols)
    sizes = merged.get("sizes")
    if sizes is None:
        sizes = (1,) if graph["kind"] == "file" else (256, 512, 1024)
    if isinstance(sizes, int):
        sizes = (sizes,)
    try:
        sizes = tuple(int(s) for s in sizes)
    except (TypeError, ValueError):
        raise ScenarioError(f"scenario {name!r}: sizes must be integers") from None
    if not sizes or any(s < 1 for s in sizes):
        raise ScenarioError(f"scenario {name!r}: sizes must be positive")
    rumors = merged.get("rumors")
    if rumors is not None and not isinstance(rumors, dict):
        raise ScenarioError(f"scenario {name!r}: 'rumors' must be a mapping")
    return ScenarioSpec(
        name=name,
        graph=graph,
        protocols=resolved_protocols,
        sizes=sizes,
        trials=int(merged.get("trials", 3)),
        dynamics=merged.get("dynamics"),
        source=merged.get("source", "zero"),
        max_rounds=merged.get("max_rounds"),
        title=str(merged.get("title", "")),
        description=str(merged.get("description", "")),
        notes=str(merged.get("notes", "")),
        rumors=rumors,
        metadata=dict(merged.get("metadata", {})),
    )


def resolve_scenario(spec) -> ScenarioSpec:
    """Resolve anything scenario-shaped into a :class:`ScenarioSpec`.

    Mirrors :func:`resolve_dynamics` / :func:`repro.store.resolve_store`:

    * a :class:`ScenarioSpec` is returned unchanged;
    * a dict is treated as one manifest entry (see
      :mod:`repro.scenarios.corpus` for the schema);
    * a string is a corpus reference — ``"corpus.yaml#name"`` loads the
      manifest and selects one scenario by name, and a bare manifest path
      resolves when the corpus contains exactly one scenario.
    """
    if isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, dict):
        return _scenario_from_dict(spec)
    if isinstance(spec, str):
        from .corpus import load_corpus

        path, _, name = spec.partition("#")
        corpus = load_corpus(path)
        if name:
            for scenario in corpus.scenarios:
                if scenario.name == name:
                    return scenario
            raise ScenarioError(
                f"corpus {path!r} has no scenario named {name!r}; it has: "
                + ", ".join(s.name for s in corpus.scenarios)
            )
        if len(corpus.scenarios) == 1:
            return corpus.scenarios[0]
        raise ScenarioError(
            f"corpus {path!r} contains {len(corpus.scenarios)} scenarios; "
            "select one with 'FILE#name'"
        )
    raise ScenarioError(
        "scenario must be a ScenarioSpec, a manifest-entry dict or a "
        "'FILE#name' string"
    )
