"""Experiment configuration dataclasses.

An *experiment* in this package corresponds to one claim-group of the paper's
evaluation (one Figure 1 panel, or one regular-graph theorem).  A
configuration specifies how to build the graph for a given size parameter,
which source vertex to use, which protocols to run with which arguments, what
sweep of sizes and how many trials — everything needed for
:mod:`repro.experiments.runner` to produce the numbers, and for
:mod:`repro.experiments.reporting` to render them.

Result-store cell keys
----------------------
Every (size, protocol) cell of an experiment is cached exactly by the
content-addressed result store (:mod:`repro.store`).  The cell key is a
SHA-256 over the canonical JSON of:

* the **graph fingerprint** — a purely structural hash (domain tag
  ``repro-graph-v2``, vertex/edge counts, CSR adjacency arrays) of the
  instance the ``graph_builder`` actually produced.  Display names are
  deliberately excluded: renaming a graph must not invalidate its cells.
  The case's source vertex is hashed alongside;
* the **protocol spec** — ``ProtocolSpec.name`` plus ``kwargs`` with dict
  keys sorted, tuples listified, numpy scalars unwrapped and ``-0.0``
  normalized to ``0.0``;
* the **dynamics spec** — the resolved schedule's round-trippable ``spec()``
  dict (spec-level ``kwargs["dynamics"]`` overrides a sweep-wide default,
  exactly as at run time), or ``null`` for a static topology;
* the exact **per-trial seed list** (derived from ``base_seed``, the
  experiment id, ``ProtocolSpec.seed_key`` and the size parameter — i.e.
  everything seed derivation already depends on), the trial count, the
  resolved round budget and the ``record_history`` flag;
* the store's semantics version (and a fixed ``"backend": "batched"``
  entry, kept so existing addresses do not move).

On disk each cell is a compressed NPZ (per-trial broadcast times,
completion flags, message counts, ragged per-round histories) plus a JSON
sidecar (protocol/graph/backend metadata, per-trial metadata dicts, the key
payload above, and the NPZ's SHA-256 for integrity checking); see
:mod:`repro.store.artifacts` for the layout and atomicity guarantees.

Builder versions and manifest trust
-----------------------------------
The graph fingerprint is a hash of the *built* arrays, so deriving a cell
key normally requires building the graph.  To let a fully warm sweep skip
construction entirely, a sweep point's graph is a function of its *builder
spec* alone: every graph family registers a ``(family, builder_version)``
pair and a build from params in one family table
(:func:`repro.graphs.register_builder`), and every registered experiment
and compiled scenario builds its cases through one :class:`CaseBuilder` —
a family, a params rule and a source rule.  Its ``case_spec(size,
case_seed)`` derives the builder spec (family + parameters + version +
case revision) without building; its call builds from exactly those
params.  The sweep journal's manifest records, for each cell, that spec
next to the fingerprint it produced.  On a warm start
:func:`repro.store.orchestrator.resolve_sweep_plans` matches the current
spec against the manifest and, on an exact match, trusts the recorded
fingerprint via a :class:`~repro.store.orchestrator.GraphStub` — zero
constructions.  Changing what a build emits **must** come with a
version bump in its module's ``BUILDER_VERSION`` (or ``BUILDER_VERSIONS``
entry); the spec then no longer matches and affected cells rebuild and
re-fingerprint honestly.  A plain callable ``graph_builder`` still works;
it just has no spec, so its sweeps always build.

Scenario specs and the corpus manifest
--------------------------------------
Experiments don't have to be hand-registered factories: the scenario layer
(:mod:`repro.scenarios`) compiles declarative *scenario specs* into these
same :class:`ExperimentConfig` objects, so the runner, store, farm and
reporting machinery above applies to them unchanged.

Every axis shares one **spec grammar** (:mod:`repro.specs`): a spec is a
dict with a ``kind`` key, or the equivalent compact string
``kind:key=value,key=value`` (values coerce ``true``/``false`` → bool,
then int, then float, then string).  The same grammar spells graph
sources (``sbm:num_blocks=8,p_in=0.05,p_out=0.001``), dynamics schedules
(``bernoulli-edges:rate=0.1``) and protocols (``push-pull``), on the CLI
and in manifests alike.  :func:`repro.scenarios.resolve_scenario` is the
entry point, mirroring :func:`repro.scenarios.resolve_dynamics` and
:func:`repro.store.resolve_store`.

A **corpus manifest** (YAML or JSON; see :mod:`repro.scenarios.corpus`
for the full schema) names a set of scenarios::

    corpus: my-corpus            # corpus name
    defaults:                    # merged under every scenario entry
      trials: 3
      protocols: [push, push-pull]
    scenarios:
      - name: communities        # experiment id of the compiled config
        graph: {kind: sbm, num_blocks: 4, p_in: 0.2, p_out: 0.01}
        sizes: [256, 512, 1024]  # sweep sizes (default: [256,512,1024];
                                 # file scenarios default to [1])
        source: max-degree       # vertex id | zero | max-degree |
                                 #   min-degree | random
        dynamics: "bernoulli-edges:rate=0.1,seed=7"   # optional
        max_rounds: {model: n log n, factor: 40}      # optional budget
        rumors: {count: 3, interval: 4, trials: 2}    # optional
                                 # multi-rumor contention block

Graph kinds cover the paper families (``star``, ``double-star``, ...),
the random families (``random-regular``, ``erdos-renyi``, ...), the
corpus generators (``powerlaw``, ``sbm``, ``geometric``) and ingested
files (``file`` with ``path``/``format``/``canonicalize``; the builder
spec identifies the file by content hash, not path).  ``repro corpus
run|status|report`` drives a manifest end to end against the store;
``repro run --scenario FILE#name`` runs one scenario.

Execution and warm-path knobs
-----------------------------
Every trial runs through :func:`repro.core.batch.run_batch`; the call
protocols pick their tier before every round from the live frontier (sparse
frontiers or dense rows, bit-identical; see
:meth:`repro.core.kernels.vertex.VertexKernel._choose_tier`) and take no
environment knob; ``run_batch(frontier=...)`` forces a tier.  One environment variable tunes the store's warm path:

``REPRO_VERIFY_MANIFEST``
    Set to ``"1"`` to make warm starts paranoid: instead of trusting the
    manifest's recorded graph fingerprints, every matched cell rebuilds
    its graph and re-fingerprints it, raising
    :class:`repro.store.orchestrator.ManifestMismatchError` on any
    divergence (the tell-tale of a builder change that landed without a
    version bump).  Off by default because it forfeits the zero-compute
    warm path; turn it on in CI or after editing a builder.

Observability environment knobs
-------------------------------
Three further variables turn on the telemetry layer
(:mod:`repro.telemetry`).  Telemetry observes, it never participates: no
store key, seed derivation, or kernel trajectory depends on whether any of
these is set — fixed-seed runs are bit-identical either way.

``REPRO_TRACE``
    A directory path: every instrumented phase (graph build, store key
    derivation, kernel round loop, store read/write, lease/publish, report
    render) appends one JSONL span record to ``trace-<pid>.jsonl`` there,
    plus strided per-round informed-count/frontier samples from the kernel
    loop.  Inspect with ``repro trace summary <dir>`` and
    ``repro trace export --chrome <dir>``.  Unset (the default), spans are
    a shared no-op object: no allocation, no I/O.
``REPRO_LOG``
    A stdlib logging level name (``DEBUG``, ``INFO``, ``WARNING``, ...):
    structured key=value logs from the worker, farm, and remote-store
    layers go to stderr at that level.  Unset, the ``repro`` loggers stay
    unconfigured (silent under the stdlib default handling).

Publish wire format
-------------------
Distributed sweeps move these same two artifacts over HTTP.  A worker
publishing cell ``<key>`` sends ``PUT /cells/<key>`` whose body is a single
*object frame* (:mod:`repro.store.backends.base`):

* the 15-byte magic ``b"repro-object-1\\n"``;
* two big-endian unsigned 64-bit lengths (``struct`` format ``">QQ"``):
  the sidecar byte count, then the NPZ byte count;
* the JSON sidecar bytes, verbatim;
* the NPZ bytes, verbatim.

The frame is self-delimiting, so a truncated or padded body is detected
*structurally* (declared lengths vs. actual bytes) before any content
check runs.  The server then re-verifies, before committing: that the
sidecar's ``key`` matches the URL, that the SHA-256 of the NPZ bytes
matches the sidecar's ``npz_sha256``, and that hashing the sidecar's
``cell`` payload reproduces the key.  Replaying a publish is idempotent
(bit-identical bytes are already committed); a publish whose bytes differ
from the committed object is rejected with 409 and never overwrites.

The same frame travels in the other direction as the body of
``GET /cells/<key>/object`` reads.  The reading client checks its lengths
and the payload's SHA-256 against the sidecar before it caches the
object; a hub whose committed object lost its NPZ frames an empty
payload, which that check rejects.  All farm traffic
(``POST /sweeps/submit``, ``.../lease``, ``.../heartbeat``,
``.../complete``, ``.../fail``) is plain JSON over POST, authenticated —
like publishes — with ``Authorization: Bearer <token>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from ..graphs.builders import build_graph, builder_spec
from ..graphs.graph import Graph

__all__ = [
    "CaseBuilder",
    "GraphCase",
    "ProtocolSpec",
    "ExperimentConfig",
    "scaled_sizes",
    "sweep_sizes",
]


@dataclass(frozen=True)
class GraphCase:
    """A concrete graph instance plus the source vertex the experiment uses.

    ``size_parameter`` is the sweep parameter that produced the instance (not
    necessarily equal to ``graph.num_vertices``; e.g. the cycle-of-stars family
    is parameterised by ``k`` with ``n = k + k^2 + k^3``).
    """

    graph: Graph
    source: int
    size_parameter: int

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the instance."""
        return self.graph.num_vertices


@dataclass(frozen=True)
class CaseBuilder:
    """A sweep point's :class:`GraphCase` as a function of its builder spec.

    ``params`` maps ``(size_parameter, case_seed)`` to the family's builder
    params: a string names the one param the size parameter fills, a
    callable ``(size, case_seed) -> dict`` derives them all (a random
    family's ``seed`` included).  ``source`` is a vertex id or a callable
    ``(graph, params, case_seed) -> vertex``.  :meth:`case_spec` describes a
    point without building it; calling the builder builds from exactly
    those params through the family table, or through ``build(params)``
    for a family whose params do not determine its input (an ingested file
    is named by content hash, not path).  A sweep builds each point once,
    in the process that resolves its plans, and pool workers receive the
    built case, so the builder itself never crosses a process boundary.
    """

    family: str
    params: Union[str, Callable[[int, int], Dict[str, Any]]]
    source: Union[int, Callable[[Graph, Dict[str, Any], int], int]] = 0
    case_revision: int = 1
    build: Optional[Callable[[Dict[str, Any]], Graph]] = None

    def builder_params(self, size_parameter: int, case_seed: int) -> Dict[str, Any]:
        """The family's builder params for one sweep point."""
        if isinstance(self.params, str):
            return {self.params: int(size_parameter)}
        return self.params(int(size_parameter), int(case_seed))

    def case_spec(self, size_parameter: int, case_seed: int) -> Dict[str, Any]:
        """Canonical builder spec of one sweep point — no construction."""
        return builder_spec(
            self.family,
            self.builder_params(size_parameter, case_seed),
            case_revision=self.case_revision,
        )

    def __call__(self, size_parameter: int, case_seed: int) -> GraphCase:
        params = self.builder_params(size_parameter, case_seed)
        if self.build is None:
            graph = build_graph(self.family, params)
        else:
            graph = self.build(params)
        source = self.source
        if callable(source):
            source = source(graph, params, int(case_seed))
        return GraphCase(graph=graph, source=int(source), size_parameter=int(size_parameter))


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol to run within an experiment.

    ``label`` distinguishes multiple configurations of the same protocol in a
    single experiment (e.g. visit-exchange with different agent densities in
    the ablation experiment).

    Dynamic topology (``kwargs["dynamics"]``)
    -----------------------------------------
    A ``"dynamics"`` entry in ``kwargs`` attaches a dynamic-topology schedule
    to every trial of the spec (this is how the robustness experiments sweep
    failure rates).  The value is anything
    :func:`repro.scenarios.resolve_dynamics` accepts:

    * a :class:`~repro.graphs.dynamic.TopologySchedule` instance,
    * a spec dict ``{"kind": <name>, **params}``, or
    * the CLI string form ``"<kind>:key=value,key=value"``.

    Kinds and their parameters:

    ========================  =================================================
    ``static``                ``down_edges`` / ``down_vertices`` (or explicit
                              ``edge_state`` / ``vertex_state`` masks)
    ``bernoulli-edges``       ``rate`` (per-round, per-edge failure
                              probability), ``seed``
    ``flapping``              ``period``, ``down_rounds``, ``edge_fraction``
                              or ``edges``, ``seed``, ``random_phase``
    ``node-crashes``          ``crash_round``, ``fraction`` or ``vertices``,
                              ``duration`` (omit for a permanent crash),
                              ``seed``
    ``edge-churn``            ``fail_rate``, ``recover_rate``, ``seed``
                              (per-edge up/down Markov chains)
    ``compose``               ``schedules``: a list of nested specs, ANDed
    ========================  =================================================

    Spec dicts are preferred over schedule instances inside experiment
    configurations: they are trivially picklable for the process-parallel
    cell scheduler and resolve to a fresh schedule per cell.  Trial seeds do
    not depend on the dynamics, so a failure sweep is seed-paired with its
    failure-free baseline.
    """

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    #: Optional override of the label used for trial-seed derivation.  Give
    #: several specs the same ``seed_label`` (e.g. every failure rate of one
    #: protocol in a robustness experiment) and their trials become
    #: *seed-paired*: trial ``t`` draws from the same stream in every cell,
    #: so differences between cells are paired samples, not independent ones.
    seed_label: Optional[str] = None

    @property
    def display_label(self) -> str:
        """Label used in tables; defaults to the protocol name."""
        return self.label if self.label is not None else self.name

    @property
    def seed_key(self) -> str:
        """Label used to derive trial seeds; defaults to the display label."""
        return self.seed_label if self.seed_label is not None else self.display_label


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one reproducible experiment.

    Attributes
    ----------
    experiment_id:
        Stable identifier used by the registry, the CLI and EXPERIMENTS.md
        (e.g. ``"fig1a-star"``).
    title / paper_reference / description:
        Human readable context for the generated report.
    graph_builder:
        Callable mapping a size parameter (and a seed, for random families) to
        a :class:`GraphCase` — a :class:`CaseBuilder` for every registered
        experiment, so warm sweeps can trust their manifests.
    sizes:
        The sweep of size parameters, smallest first.
    protocols:
        The protocols to run at every size.
    trials:
        Number of independent trials per (size, protocol) cell.
    max_rounds:
        Optional callable ``size_parameter -> round budget``; ``None`` uses
        :func:`repro.core.batch.default_max_rounds`.
    claim_ids:
        The paper predictions (see :mod:`repro.theory.predictions`) this
        experiment checks.
    notes:
        Free text recorded in the report (substitutions, source restrictions).
    """

    experiment_id: str
    title: str
    paper_reference: str
    description: str
    graph_builder: Callable[[int, int], GraphCase]
    sizes: Tuple[int, ...]
    protocols: Tuple[ProtocolSpec, ...]
    trials: int = 5
    max_rounds: Optional[Callable[[int], int]] = None
    claim_ids: Tuple[str, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("an experiment needs at least one size")
        if not self.protocols:
            raise ValueError("an experiment needs at least one protocol")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if len({spec.display_label for spec in self.protocols}) != len(self.protocols):
            raise ValueError("protocol display labels must be unique within an experiment")

    def build_case(self, size_parameter: int, seed: int) -> GraphCase:
        """Build the graph case for one sweep point."""
        return self.graph_builder(size_parameter, seed)

    def round_budget(self, size_parameter: int) -> Optional[int]:
        """Round budget for one sweep point (None = the driver's default)."""
        if self.max_rounds is None:
            return None
        return int(self.max_rounds(size_parameter))


def scaled_sizes(sizes: Sequence[int], scale: float, *, minimum: int = 4) -> Tuple[int, ...]:
    """Scale a size sweep down for quick runs (used by tests and benchmarks).

    Keeps the number of sweep points but shrinks each size parameter by the
    given factor, never going below ``minimum`` and keeping the result
    strictly increasing where possible.  The default minimum of 4 is the
    smallest size parameter accepted by every registered graph family.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    scaled = []
    previous = 0
    for size in sizes:
        value = max(int(round(size * scale)), minimum)
        if value <= previous:
            value = previous + 1
        scaled.append(value)
        previous = value
    return tuple(scaled)


def sweep_sizes(config: ExperimentConfig, scale: float) -> Optional[Tuple[int, ...]]:
    """The ``sizes`` override of a ``--scale``: None (the configured sweep) at 1.0."""
    return scaled_sizes(config.sizes, scale) if scale != 1.0 else None
