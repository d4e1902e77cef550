"""Span tracing of repro's layers from outside the package.

The benchmark never edits ``src/``.  :class:`Patches` swaps a function or a
method for a wrapper *where callers look it up*: on the class for methods, and
for module functions in the defining module plus every ``repro`` module that
imported the name (``repro.experiments.runner.run_batch`` is such a copy).
:meth:`Patches.restore` puts every original back.

:class:`Tracer` uses that to time calls into each layer's public functions.
Spans are kept in memory as ``(id, key, start, end, parent, tag)`` — ``tag``
is the cell or request the span belongs to — and written out by
:meth:`Tracer.dump`.  A span's self time is its duration minus the time its
direct children cover; :class:`SpanTotals` sums self times per layer metric
and :func:`pass_layers` turns them into the per-layer metrics of a pass.
Timestamps come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is
shared by every process on the machine, so the spans of the report server and
of its client can be cut to the same time window.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

PROTOCOLS = (
    "push",
    "pull",
    "push-pull",
    "visit-exchange",
    "meet-exchange",
    "hybrid-ppull-visitx",
)

GRAPH_BUILDERS = (
    "star",
    "double_star",
    "heavy_binary_tree",
    "siamese_heavy_binary_tree",
    "cycle_of_stars_of_cliques",
    "complete_graph",
    "cycle_graph",
    "hypercube",
    "torus_grid",
    "random_regular_graph",
    "clique_path",
    "clique_cycle",
    "circulant_graph",
    "erdos_renyi",
    "connected_erdos_renyi",
    "preferential_attachment",
)

#: Layer functions: (module, attribute path, span key).  The self time of a
#: span accrues to ``LAYER_OF[key]``.
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("repro.experiments.config", "ExperimentConfig.build_case", "build_case"),
    *[("repro.graphs", name, "graph_builder") for name in GRAPH_BUILDERS],
    ("repro.scenarios.generators", "powerlaw_configuration", "graph_builder"),
    ("repro.scenarios.generators", "stochastic_block_model", "graph_builder"),
    ("repro.scenarios.generators", "random_geometric", "graph_builder"),
    ("repro.graphs.dynamic", "DynamicsRuntime.round_masks", "round_masks"),
    ("repro.store.orchestrator", "resolve_cell", "resolve_cell"),
    ("repro.store.orchestrator", "resolve_sweep_plans", "resolve_sweep_plans"),
    ("repro.store.keys", "graph_fingerprint", "fingerprint"),
    ("repro.store.keys", "cell_key", "fingerprint"),
    ("repro.core.batch", "run_batch", "run_batch"),
    ("repro.core.kernels.base", "NeighborSampler.sample_per_vertex", "sample"),
    ("repro.core.kernels.base", "NeighborSampler.sample_walk", "sample"),
    ("repro.core.kernels.vertex", "SparseVertexMixin._sparse_callees", "sample"),
    ("repro.store.artifacts", "ResultStore.put_trial_set", "put"),
    ("repro.store.artifacts", "ResultStore.put_document", "put"),
    ("repro.store.artifacts", "ResultStore.get_trial_set", "get"),
    ("repro.store.artifacts", "ResultStore.get_document", "get"),
    ("repro.store.backends.remote", "RemoteBackend.read_sidecar_bytes", "remote_read"),
    ("repro.store.backends.remote", "RemoteBackend.read_npz_bytes", "remote_read"),
    ("repro.store.backends.remote", "RemoteBackend.read_sweep_text", "remote_read"),
    ("repro.store.backends.remote", "RemoteBackend._request", "http.request"),
    ("repro.experiments.reporting", "report_fingerprint", "report_fingerprint"),
    ("repro.experiments.reporting", "store_report_payload", "report_payload"),
    ("repro.experiments.reporting", "result_from_store", "report_payload"),
    ("repro.experiments.reporting", "coupling_result_from_store", "report_payload"),
    ("repro.experiments.reporting", "fairness_result_from_store", "report_payload"),
    ("repro.experiments.reporting", "render_report_html", "render"),
    ("repro.experiments.reporting", "experiment_markdown_section", "render"),
    ("repro.experiments.reporting", "coupling_markdown_section", "render"),
    ("repro.experiments.reporting", "fairness_markdown_section", "render"),
    ("repro.analysis.statistics", "summarize_trials", "summarize"),
    ("repro.analysis.statistics", "summarize", "summarize"),
    ("repro.analysis.statistics", "bootstrap_ci", "summarize"),
    ("repro.experiments.runner", "run_experiment", "runner"),
    ("repro.experiments.runner", "run_trial_set", "runner"),
    ("repro.experiments.coupling_experiment", "run_coupling_experiment", "runner"),
    ("repro.experiments.fairness_experiment", "run_fairness_experiment", "runner"),
]

#: Span key -> the per-layer metric its self time accrues to.  ``None``: the
#: span is split elsewhere (a client HTTP request is server time plus wait).
LAYER_OF: Dict[str, Optional[str]] = {
    "build_case": "graphs.build_s",
    "graph_builder": "graphs.build_s",
    "round_masks": "graphs.dynamic.masks_s",
    "resolve_cell": "store.orchestrator.resolve_s",
    "resolve_sweep_plans": "store.orchestrator.resolve_s",
    "fingerprint": "store.keys.fingerprint_s",
    "run_batch": "core.batch.loop_self_s",
    "kernel.init": "core.kernels.init_s",
    "kernel.complete": "core.kernels.complete_s",
    "sample": "core.kernels.sample_s",
    "put": "store.artifacts.put_s",
    "get": "store.artifacts.get_s",
    "remote_read": "store.backends.remote.read_s",
    "http.request": None,
    "report_fingerprint": "experiments.reporting.fingerprint_s",
    "report_payload": "experiments.reporting.payload_s",
    "render": "experiments.reporting.render_s",
    "summarize": "analysis.statistics.summarize_s",
    "runner": "experiments.runner.self_s",
    **{f"kernel.step.{protocol}": f"core.kernels.step_s.{protocol}" for protocol in PROTOCOLS},
}

#: Every self-time metric; with ``other_s`` they partition the traced time.
SELF_METRICS = tuple(sorted({m for m in LAYER_OF.values() if m is not None}))

#: Ops whose completion the launcher always clocks (tracing on or off): the
#: cells of ``repro report``.
OP_FUNCTIONS = [
    ("repro.experiments.runner", "run_trial_set"),
    ("repro.experiments.coupling_experiment", "run_coupling_experiment"),
    ("repro.experiments.fairness_experiment", "run_fairness_experiment"),
]


class Patches:
    """Reversible replacement of functions and methods by wrappers."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def replace(self, module_name: str, path: str, make_wrapper: Callable) -> None:
        module = importlib.import_module(module_name)
        owner_path, _, name = path.rpartition(".")
        owner: Any = module
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            had = name in owner.__dict__
            self._undo.append((owner, name, owner.__dict__.get(name), had))
            setattr(owner, name, wrapper)
            return
        holders = [module] + [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and mod is not module and mod_name.startswith("repro")
        ]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, attr, value, True))
                    setattr(holder, attr, wrapper)

    def restore(self) -> None:
        for owner, name, value, had in reversed(self._undo):
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._undo.clear()


def import_repro() -> None:
    """Import every module whose names the patches rewrite."""
    for module_name in {m for m, _, _ in FUNCTIONS} | {"repro.cli.main"}:
        importlib.import_module(module_name)


class OpClock:
    """Completion times of the program's operations (cells of a report).

    Cheap enough to stay on in untraced runs: one clock read per cell.
    """

    def __init__(self) -> None:
        self.done: List[float] = []
        self._patches = Patches()

    def install(self) -> None:
        import_repro()

        def make(original):
            @functools.wraps(original)
            def clocked(*args, **kwargs):
                result = original(*args, **kwargs)
                self.done.append(time.monotonic())
                return result

            return clocked

        for module_name, name in OP_FUNCTIONS:
            self._patches.replace(module_name, name, make)


class Tracer:
    """Record spans around the layer functions of :data:`FUNCTIONS`."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = Patches()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def tag(self) -> str:
        return getattr(self._local, "tag", "")

    @tag.setter
    def tag(self, value: str) -> None:
        self._local.tag = value

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def wrapper(self, key: str, after: Optional[Callable] = None) -> Callable:
        """Wrapper factory recording a ``key`` span per call; ``after(args,
        result)`` runs outside the span to update counters."""
        spans = self.spans
        ids = self._ids

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                stack = self._stack()
                parent = stack[-1] if stack else -1
                span_id = next(ids)
                stack.append(span_id)
                start = time.monotonic()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.monotonic()
                    stack.pop()
                    spans.append((span_id, key, start, end, parent, self.tag))
                if after is not None:
                    after(args, result)
                return result

            return traced

        return make

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import_repro()
        from repro.core.kernels import KERNEL_REGISTRY

        for module_name, path, key in FUNCTIONS:
            after = _AFTER.get(key)
            self._patches.replace(
                module_name, path, self.wrapper(key, after(self) if after else None)
            )
        for protocol, cls in KERNEL_REGISTRY.items():
            module, name = cls.__module__, cls.__name__
            self._patches.replace(
                module,
                f"{name}.initialize",
                self.wrapper("kernel.init", lambda args, _: _kernel_started(self, args[0])),
            )
            self._patches.replace(module, f"{name}.step", self.wrapper(f"kernel.step.{protocol}"))
            self._patches.replace(module, f"{name}.complete_rows", self.wrapper("kernel.complete"))
        # Transport attempts (retries = attempts - requests); no span.
        self._patches.replace(
            "urllib.request", "urlopen", _counting(self, "store.backends.remote.attempts")
        )
        # The service tags every span a request causes with its path.
        self._patches.replace("repro.store.service", "StoreRequestHandler.do_GET", _tagging(self))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- output --------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        keys = sorted({span[1] for span in self.spans})
        index = {key: i for i, key in enumerate(keys)}
        tags = sorted({span[5] for span in self.spans})
        tag_index = {tag: i for i, tag in enumerate(tags)}
        document = {
            "keys": keys,
            "tags": tags,
            "spans": [
                [span_id, index[key], start, end, parent, tag_index[tag]]
                for span_id, key, start, end, parent, tag in self.spans
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def load_spans(path: str) -> Tuple[List[Tuple[int, str, float, float, int, str]], Dict[str, Any]]:
    """Spans and the rest of a :meth:`Tracer.dump` document."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    keys, tags = document.pop("keys"), document.pop("tags")
    spans = [
        (span_id, keys[key], start, end, parent, tags[tag])
        for span_id, key, start, end, parent, tag in document.pop("spans")
    ]
    return spans, document


class SpanTotals:
    """Self seconds per layer metric, span counts and inclusive seconds per
    span key, of the spans inside one time window."""

    def __init__(
        self,
        spans: Sequence[Tuple[int, str, float, float, int, str]],
        window: Tuple[float, float] = (float("-inf"), float("inf")),
    ) -> None:
        lo, hi = window
        inside = [span for span in spans if span[2] >= lo and span[3] <= hi]
        child_time: Dict[int, float] = defaultdict(float)
        key_of: Dict[int, str] = {}
        for span_id, key, start, end, parent, _tag in inside:
            key_of[span_id] = key
            if parent >= 0:
                child_time[parent] += end - start
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        for span_id, key, start, end, parent, _tag in inside:
            self.inclusive_s[key] += end - start
            metric = LAYER_OF[key]
            if metric is not None:
                self.self_s[metric] += (end - start) - child_time[span_id]
            # A family builder called by the experiment's builder is part of
            # that one build.
            if not (key in _BUILD_KEYS and key_of.get(parent) in _BUILD_KEYS):
                self.counts[key] += 1


_BUILD_KEYS = ("build_case", "graph_builder")

#: Per-layer metrics and their units, in report order.
LAYER_UNITS: Dict[str, str] = {
    **{metric: "s" for metric in SELF_METRICS},
    "core.kernels.step_s": "s",
    "repro.import_s": "s",
    "store.service.self_s": "s",
    "store.service.wait_s": "s",
    "other_s": "s",
    "core.batch.run_s": "s",
    "store.service.handle_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "wall.run_s": "s",
    "wall.op_p50_ms": "ms",
    "wall.op_p95_ms": "ms",
    "trace.client_threads": "count",
    "graphs.builds": "count",
    "core.batch.calls": "count",
    "core.batch.trial_rounds": "count",
    "core.kernels.steps": "count",
    "core.kernels.cells_sparse": "count",
    "core.kernels.cells_dense": "count",
    "core.kernels.inform_yield": "ratio",
    "store.orchestrator.keys": "count",
    "store.artifacts.puts": "count",
    "store.artifacts.bytes_written": "B",
    "store.artifacts.gets": "count",
    "store.artifacts.bytes_read": "B",
    "store.artifacts.hit_ratio": "ratio",
    "store.backends.remote.reads": "count",
    "store.backends.remote.retries": "count",
    "store.service.requests": "count",
    "op_error_rate": "ratio",
}

#: The metrics that partition a traced pass's (thread-)time.
ATTRIBUTED = tuple(
    sorted(
        [m for m in SELF_METRICS if not m.startswith("core.kernels.step_s.")]
        + ["core.kernels.step_s", "repro.import_s", "store.service.self_s",
           "store.service.wait_s", "other_s"]
    )
)


def pass_layers(
    client: SpanTotals,
    counters: Dict[str, float],
    *,
    wall: float,
    threads: int = 1,
    request_s: float = 0.0,
    import_s: float = 0.0,
    server: Optional[SpanTotals] = None,
    handle_s: float = 0.0,
    requests: int = 0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are thread-seconds: with ``threads`` client threads the attributed
    metrics add up to ``threads * wall``.  ``request_s`` is the client time
    spent in HTTP requests (wrapped ``RemoteBackend._request`` spans plus the
    benchmark's own requests); the server's layer spans are added to the same
    layer metrics, ``store.service.self_s`` is the rest of the server's
    handling time (``handle_s``, from its ``/metrics``) and
    ``store.service.wait_s`` is request time the server did not see.
    """
    layers = {metric: 0.0 for metric in LAYER_UNITS}
    for totals in (client, server):
        if totals is not None:
            for metric, seconds in totals.self_s.items():
                layers[metric] += seconds
    server_self = sum(server.self_s.values()) if server is not None else 0.0
    protocols = [f"core.kernels.step_s.{p}" for p in PROTOCOLS]
    layers["core.kernels.step_s"] = sum(layers[m] for m in protocols)
    layers["repro.import_s"] = import_s
    layers["store.service.handle_s"] = handle_s
    layers["store.service.self_s"] = handle_s - server_self
    layers["store.service.wait_s"] = request_s - handle_s
    layers["other_s"] = (
        threads * wall - sum(client.self_s.values()) - request_s - import_s
    )
    layers["trace.pass_s"] = wall
    layers["trace.client_threads"] = threads

    counts: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, float] = defaultdict(float)
    for totals in (client, server):
        if totals is not None:
            for key, n in totals.counts.items():
                counts[key] += n
            for key, seconds in totals.inclusive_s.items():
                inclusive[key] += seconds
    layers["core.batch.run_s"] = inclusive["run_batch"]
    layers["graphs.builds"] = counts["build_case"] + counts["graph_builder"]
    layers["core.batch.calls"] = counts["run_batch"]
    layers["core.batch.trial_rounds"] = counters.get("core.batch.trial_rounds", 0)
    layers["core.kernels.steps"] = sum(counts[f"kernel.step.{p}"] for p in PROTOCOLS)
    layers["core.kernels.cells_sparse"] = counters.get("core.kernels.cells_sparse", 0)
    layers["core.kernels.cells_dense"] = counters.get("core.kernels.cells_dense", 0)
    stepped = counters.get("core.kernels.vertex_trial_rounds", 0)
    if stepped:
        layers["core.kernels.inform_yield"] = (
            counters.get("core.kernels.informed_new", 0) / stepped
        )
    layers["store.orchestrator.keys"] = counts["resolve_cell"]
    layers["store.artifacts.puts"] = counts["put"]
    layers["store.artifacts.bytes_written"] = counters.get("store.artifacts.bytes_written", 0)
    layers["store.artifacts.gets"] = counts["get"]
    layers["store.artifacts.bytes_read"] = counters.get("store.artifacts.bytes_read", 0)
    if counts["get"]:
        layers["store.artifacts.hit_ratio"] = (
            counters.get("store.artifacts.hits", 0) / counts["get"]
        )
    layers["store.backends.remote.reads"] = counts["remote_read"]
    layers["store.backends.remote.retries"] = (
        counters.get("store.backends.remote.attempts", 0) - counts["http.request"]
    )
    layers["store.service.requests"] = requests
    return layers


# -- counter hooks ----------------------------------------------------------

def _after_run_batch(tracer: Tracer):
    def after(args, result) -> None:
        rounds = int(result.rounds_executed.sum())
        tracer.count("core.batch.trial_rounds", rounds)
        kernel = getattr(tracer._local, "kernel", None)
        if kernel is not None:
            final = int(kernel.informed_vertex_counts(kernel.num_trials).sum())
            tracer.count("core.kernels.informed_new", final - tracer._local.kernel_informed0)
            tracer.count("core.kernels.vertex_trial_rounds", result.num_vertices * rounds)
            tracer._local.kernel = None

    return after


def _kernel_started(tracer: Tracer, kernel) -> None:
    tracer.count(f"core.kernels.cells_{kernel.frontier_resolved}")
    tracer._local.kernel = kernel
    tracer._local.kernel_informed0 = int(
        kernel.informed_vertex_counts(kernel.num_trials).sum()
    )


def _after_put(tracer: Tracer):
    def after(args, result) -> None:
        store, key = args[0], args[1]
        tracer.count("store.artifacts.bytes_written", store.backend.object_size(key) or 0)

    return after


def _after_get(tracer: Tracer):
    def after(args, result) -> None:
        if result is not None:
            store, key = args[0], args[1]
            tracer.count("store.artifacts.hits")
            tracer.count("store.artifacts.bytes_read", store.backend.object_size(key) or 0)

    return after


_AFTER = {
    "run_batch": _after_run_batch,
    "put": _after_put,
    "get": _after_get,
}


def _counting(tracer: Tracer, name: str) -> Callable:
    def make(original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        return counted

    return make


def _tagging(tracer: Tracer) -> Callable:
    def make(original):
        @functools.wraps(original)
        def tagged(handler, *args, **kwargs):
            tracer.tag = handler.path
            try:
                return original(handler, *args, **kwargs)
            finally:
                tracer.tag = ""

        return tagged

    return make
