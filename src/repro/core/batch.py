"""Batched multi-trial simulation driver — the one way trials execute.

Every statistical claim of the paper (Theorems 1-3, Figure 1) is estimated
from dozens of independent trials per (graph, protocol, size) cell.  This
module advances **T independent trials simultaneously** on the vectorized
protocol kernels of :mod:`repro.core.kernels` — 2-D numpy state shaped
``(trials, ...)`` — so the per-round cost is a handful of vectorized array
operations regardless of the trial count, and the number of round-loop
iterations is ``max_t rounds_t`` rather than ``sum_t rounds_t``.

The kernels are the single source of truth for the protocol definitions; this
module owns everything *around* them: seed handling, the round budget, the
round loop, completion masking by row compaction, per-round history
recording, observer dispatch and result packaging.  A single run is simply a
batch of one (see :func:`repro.simulate`).

Use :func:`run_batch` directly, or :func:`repro.simulate_batch` for the
one-call convenience wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..graphs.graph import Graph, GraphError
from ..telemetry import span, trace_enabled, trace_event
from .kernels import batch_generator, get_kernel_class
from .results import RunResult, TrialSet
from .rng import derive_seed

__all__ = [
    "BatchResult",
    "default_max_rounds",
    "run_batch",
    "trial_seeds",
]


def default_max_rounds(graph: Graph, *, safety_factor: float = 50.0) -> int:
    """A generous default round budget.

    The slowest behaviour any of the paper's protocols exhibits on its example
    graphs is linear in ``n`` (up to log factors); the cover time of a single
    random walk on a connected graph is ``O(n^3)`` in the worst case but the
    experiments never rely on that regime.  The default budget
    ``safety_factor * n * log2(n)`` comfortably covers every configured
    experiment while still terminating promptly when something is wrong.
    """
    n = graph.num_vertices
    return int(max(64, safety_factor * n * max(math.log2(max(n, 2)), 1.0)))


def trial_seeds(base_seed: int, *components, trials: int) -> List[int]:
    """Derive one independent seed per trial.

    Seed ``t`` is ``derive_seed(base_seed, *components, t)``, i.e. exactly the
    seed :func:`~repro.experiments.runner.run_trial_set` hands to trial ``t``
    of a cell, so a trial's stream never depends on the batch it runs in.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return [derive_seed(base_seed, *components, t) for t in range(trials)]


@dataclass
class BatchResult:
    """Outcome of a batch of independent trials of one protocol configuration.

    Per-trial arrays are index-aligned with the ``seeds`` passed to
    :func:`run_batch`; ``broadcast_times[t]`` is ``-1`` for trials that hit the
    round budget (mirrored by ``completed[t] = False``).  When the batch was
    run with ``record_history=True``, ``vertex_histories[t]`` /
    ``agent_histories[t]`` hold trial ``t``'s per-round informed counts
    (round 0 included).
    """

    protocol: str
    graph_name: str
    num_vertices: int
    num_edges: int
    source: int
    broadcast_times: np.ndarray
    completed: np.ndarray
    rounds_executed: np.ndarray
    num_agents: int
    messages_sent: np.ndarray
    metadata: List[Dict[str, Any]] = field(default_factory=list)
    vertex_histories: Optional[List[List[int]]] = None
    agent_histories: Optional[List[List[int]]] = None
    #: Which state representation actually ran: "sparse" or "dense".  Purely
    #: informational — the two are bit-identical (see ``run_batch``).
    frontier_resolved: str = "dense"

    @property
    def num_trials(self) -> int:
        """Number of trials in the batch."""
        return int(self.broadcast_times.size)

    @property
    def completion_rate(self) -> float:
        """Fraction of trials that completed within the round budget."""
        return float(np.count_nonzero(self.completed)) / self.num_trials

    def completed_times(self) -> np.ndarray:
        """Broadcast times of the completed trials."""
        return self.broadcast_times[self.completed]

    def mean_broadcast_time(self) -> Optional[float]:
        """Mean broadcast time over completed trials (None if none completed)."""
        times = self.completed_times()
        return float(times.mean()) if times.size else None

    def to_run_results(self) -> List[RunResult]:
        """One :class:`RunResult` record per trial, in seed order."""
        results = []
        for t in range(self.num_trials):
            done = bool(self.completed[t])
            results.append(
                RunResult(
                    protocol=self.protocol,
                    graph_name=self.graph_name,
                    num_vertices=self.num_vertices,
                    num_edges=self.num_edges,
                    source=self.source,
                    broadcast_time=int(self.broadcast_times[t]) if done else None,
                    rounds_executed=int(self.rounds_executed[t]),
                    completed=done,
                    num_agents=self.num_agents,
                    informed_vertex_history=(
                        list(self.vertex_histories[t]) if self.vertex_histories else []
                    ),
                    informed_agent_history=(
                        list(self.agent_histories[t]) if self.agent_histories else []
                    ),
                    messages_sent=int(self.messages_sent[t]),
                    metadata=dict(self.metadata[t]) if self.metadata else {},
                )
            )
        return results

    def to_trial_set(self) -> TrialSet:
        """Package the batch as a :class:`TrialSet` for the experiment layer."""
        return TrialSet.from_results(self.to_run_results())


def run_batch(
    protocol: str,
    graph: Graph,
    source: int = 0,
    *,
    seeds: Sequence,
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    observers: Optional[Sequence] = None,
    dynamics=None,
    frontier: str = "auto",
    **protocol_kwargs,
) -> BatchResult:
    """Run ``len(seeds)`` independent trials of ``protocol`` simultaneously.

    Parameters
    ----------
    protocol:
        A key of :data:`~repro.core.kernels.KERNEL_REGISTRY`.
    graph / source:
        A connected graph and the source vertex ``s`` (Section 3).
    seeds:
        One seed-like per trial (see :func:`repro.core.rng.make_rng`); trial
        ``t`` draws exclusively from ``seeds[t]``, so its result is independent
        of the rest of the batch.  Use :func:`trial_seeds` to derive the same
        per-trial seeds as the experiment runner.
    max_rounds:
        Round budget shared by all trials; ``None`` selects
        :func:`default_max_rounds`.
    record_history:
        Record per-round informed-vertex/agent counts per trial (round 0
        included), surfaced through ``BatchResult.vertex_histories`` /
        ``agent_histories`` and the per-trial :class:`RunResult` records.
    observers:
        Optional sequence of one :class:`~repro.core.observers.ObserverGroup`
        per trial, index-aligned with ``seeds``.  Each group receives its
        trial's hook sequence (``on_run_start``, per-round ``on_round_end``, ``on_edges_used`` for
        informing transmissions, ``on_run_end``).  Falsy groups cost nothing.
    dynamics:
        Optional dynamic-topology spec — a
        :class:`~repro.graphs.dynamic.TopologySchedule`, a spec dict or a spec
        string (see :func:`repro.scenarios.resolve_dynamics`).  The
        schedule's per-round activity masks are shared by every trial of the
        batch; interactions over inactive edges or with inactive vertices do
        not happen.  Masking consumes no randomness, so an all-active schedule
        reproduces the undynamic per-trial results bit for bit.
    frontier:
        ``"auto"`` (default), ``"dense"`` or ``"sparse"``: which state
        representation the kernels use.  Sparse and dense produce
        bit-identical results (the sparse tier reads the same draw streams at
        only the frontier positions), so this is purely a performance knob —
        it never enters result identity or store keys.  ``"auto"`` engages
        the sparse tier above :func:`~repro.core.kernels.base.sparse_threshold`
        vertices; dynamics schedules and observers force the dense fallback
        either way.  The engaged representation is available as
        ``kernel.frontier_resolved`` (``"sparse"``/``"dense"``) for tests.
    protocol_kwargs:
        Forwarded to the kernel (``agent_density``, ``num_agents``, ``lazy``,
        ``one_agent_per_vertex``, ``track_all_exchanges``,
        ``track_edge_traversals``, ...).  The agent protocols also take the
        churn parameters ``death_rate``, ``birth_rate``, ``failure_round``
        and ``failure_fraction`` (see
        :class:`~repro.core.kernels.agent.AgentChurn`); each trial's
        population history, births and deaths then appear in its metadata.
    """
    kernel_class = get_kernel_class(protocol)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one trial seed")
    if not (0 <= source < graph.num_vertices):
        raise GraphError(f"source vertex {source} out of range")
    if not graph.is_connected():
        raise GraphError("the paper's protocols are defined on connected graphs")
    budget = max_rounds if max_rounds is not None else default_max_rounds(graph)
    if budget < 0:
        raise ValueError("max_rounds must be non-negative")

    gens = [batch_generator(seed) for seed in seeds]
    num_trials = len(gens)
    kernel = kernel_class(**protocol_kwargs)
    if frontier not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown frontier mode {frontier!r}")
    kernel.frontier_mode = frontier
    if dynamics is not None:
        kernel.dynamics = dynamics
    if observers is not None:
        observers = list(observers)
        if len(observers) != num_trials:
            raise ValueError("need exactly one observer group per trial seed")
        kernel.trial_observers = observers
        for group in observers:
            if group:
                group.on_run_start(graph, int(source))
    kernel.initialize(graph, int(source), gens)

    any_observers = observers is not None and any(bool(group) for group in observers)
    track_counts = record_history or any_observers
    # Per-round snapshots of (trial ids, vertex counts, agent counts) for the
    # still-active rows; assembled into per-trial histories at the end so the
    # hot loop stays free of per-row Python work.
    snapshots: List = []

    def record_round(k: int, round_index: int) -> None:
        vertex_counts = np.asarray(kernel.informed_vertex_counts(k))
        agent_counts = np.asarray(kernel.informed_agent_counts(k))
        if record_history:
            snapshots.append(
                (kernel.trial_ids[:k].copy(), vertex_counts.copy(), agent_counts.copy())
            )
        if any_observers:
            for row in range(k):
                group = observers[int(kernel.trial_ids[row])]
                if group:
                    group.on_round_end(
                        round_index, int(vertex_counts[row]), int(agent_counts[row])
                    )

    broadcast_times = np.full(num_trials, -1, dtype=np.int64)
    rounds_executed = np.zeros(num_trials, dtype=np.int64)
    active = num_trials

    def retire(finished_rows: np.ndarray, round_index: int) -> None:
        """Record the finished trials and swap their rows into the tail."""
        nonlocal active
        for row in finished_rows[::-1].tolist():
            trial = int(kernel.trial_ids[row])
            broadcast_times[trial] = round_index
            rounds_executed[trial] = round_index
            kernel.swap_rows(row, active - 1)
            active -= 1

    if track_counts:
        record_round(active, 0)
    retire(np.flatnonzero(kernel.complete_rows(active)), 0)

    round_index = 0
    # Strided per-round trace samples: computed only when REPRO_TRACE is set,
    # and assembled from side-effect-free reads (informed counts, frontier row
    # lengths) so trajectories and store keys stay bit-identical either way.
    sample_stride = max(1, budget // 64) if trace_enabled() else 0
    with span(
        "kernel.rounds",
        protocol=kernel.name,
        n=graph.num_vertices,
        trials=num_trials,
        budget=budget,
        frontier=kernel.frontier_resolved,
    ):
        while active and round_index < budget:
            round_index += 1
            kernel.step(active)
            if sample_stride and round_index % sample_stride == 0:
                sample = {
                    "round": round_index,
                    "active": active,
                    "informed": int(
                        np.asarray(kernel.informed_vertex_counts(active)).sum()
                    ),
                }
                frontier_rows = getattr(kernel, "_frontier_rows", None)
                if frontier_rows is not None:
                    sample["frontier"] = int(
                        sum(len(rows) for rows in frontier_rows[:active])
                    )
                trace_event("kernel.round", **sample)
            if track_counts:
                record_round(active, round_index)
            finished = np.flatnonzero(kernel.complete_rows(active))
            if finished.size:
                retire(finished, round_index)
    # Trials still running at budget exhaustion executed every round.
    for row in range(active):
        rounds_executed[int(kernel.trial_ids[row])] = round_index

    completed = broadcast_times >= 0
    if observers is not None:
        for trial, group in enumerate(observers):
            if group:
                group.on_run_end(
                    int(broadcast_times[trial]) if completed[trial] else None
                )

    vertex_histories: Optional[List[List[int]]] = None
    agent_histories: Optional[List[List[int]]] = None
    if record_history:
        vertex_histories = [[] for _ in range(num_trials)]
        agent_histories = [[] for _ in range(num_trials)]
        for ids, vertex_counts, agent_counts in snapshots:
            for i, trial in enumerate(ids.tolist()):
                vertex_histories[trial].append(int(vertex_counts[i]))
                agent_histories[trial].append(int(agent_counts[i]))

    return BatchResult(
        protocol=kernel.name,
        graph_name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        source=int(source),
        broadcast_times=broadcast_times,
        completed=completed,
        rounds_executed=rounds_executed,
        num_agents=kernel.num_agents(),
        messages_sent=kernel.messages_by_trial(),
        metadata=[kernel.trial_metadata(t) for t in range(num_trials)],
        vertex_histories=vertex_histories,
        agent_histories=agent_histories,
        frontier_resolved=kernel.frontier_resolved,
    )

