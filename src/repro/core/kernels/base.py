"""Shared machinery for the vectorized protocol kernels.

A *kernel* is the single source of truth for one protocol's round transition:
state lives in 2-D numpy arrays shaped ``(trials, ...)`` and one :meth:`step`
advances every still-running trial by one synchronous round.  The batched
driver (:mod:`repro.core.batch`) drives the kernels with any number of
trials at once — a single run is a batch of one — so the round logic exists
exactly once, here in :mod:`repro.core.kernels`.

Design notes
------------
* **Per-trial random streams.**  Trial ``t`` draws all of its randomness from
  its own generator (``gens[t]``), and the shape of each round's draw depends
  only on the round number — never on protocol state.  Consequently a trial's
  outcome is a pure function of its seed: it does not change when the
  surrounding batch grows, shrinks or is reordered.
* **Completion masking by row compaction.**  Per-trial arrays keep the still
  running trials in their first ``k`` rows; the driver retires a finished
  trial by swapping its row into the tail (:meth:`BatchKernel.swap_rows`), so
  finished trials stop costing work and the hot loop operates on contiguous
  zero-copy views.
* **Block draws.**  Raw 64-bit words are drawn :attr:`BatchKernel._DRAW_BLOCK`
  rounds at a time per trial and consumed as fixed-point integers, amortizing
  the per-call generator overhead (see :meth:`BatchKernel._raw_stream`).
* **Observers.**  A kernel can carry one
  :class:`~repro.core.observers.ObserverGroup` per trial
  (:attr:`BatchKernel.trial_observers`); kernels report informing edges
  through the batch hook ``on_edges_used`` on a slow path that only runs when
  a truthy group is attached.
* **Dynamic topology.**  A kernel can carry a
  :class:`~repro.graphs.dynamic.TopologySchedule`
  (:attr:`BatchKernel.dynamics`, set by the driver before
  :meth:`initialize`): each round the schedule's activity masks are expanded
  once into a directed-slot mask shared by every trial, and the samplers
  gather it at their sampled offsets — the CSR adjacency is never rebuilt.
  Masking consumes no randomness, so attaching a schedule leaves every
  trial's draw stream untouched; a round whose masks are ``None``
  (all-active) takes exactly the undynamic code path.
* **Agent churn.**  The agent kernels take ``death_rate``, ``birth_rate``,
  ``failure_round`` and ``failure_fraction``
  (:class:`~repro.core.kernels.agent.AgentChurn`).  With churn on they keep
  an alive mask over a fixed number of agent slots and mask dead agents the
  way they mask agents on a crashed vertex; churn draws come from each
  trial's own generator, so per-trial purity holds.  With churn off nothing
  is allocated or drawn and every trajectory is unchanged.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ...graphs.dynamic import DynamicsRuntime, _resolve_dynamics
from ...graphs.graph import Graph

__all__ = [
    "BatchKernel",
    "NeighborSampler",
    "batch_generator",
    "sparse_threshold",
]

#: Default vertex count above which ``frontier="auto"`` switches the vertex
#: kernels to the sparse tier.  Below it, dense whole-row numpy algebra wins
#: on constant factors; above it, frontier-sized gathers win on asymptotics.
SPARSE_MIN_VERTICES = 32768


def sparse_threshold() -> int:
    """Vertex count at which ``frontier="auto"`` engages the sparse tier.

    Overridable via the ``REPRO_SPARSE_MIN_N`` environment variable (see
    :mod:`repro.experiments.config` for the knob catalogue); read per call so
    tests can flip it without reimporting.
    """
    raw = os.environ.get("REPRO_SPARSE_MIN_N", "")
    try:
        return int(raw) if raw else SPARSE_MIN_VERTICES
    except ValueError:
        return SPARSE_MIN_VERTICES


def batch_generator(seed) -> np.random.Generator:
    """Per-trial generator for the batched kernels.

    Uses the SFC64 bit generator: its bulk uniform generation is measurably
    faster than PCG64's and the kernels are draw-bandwidth-bound.  A trial's
    result remains a pure function of its seed.  Existing generators are
    passed through unchanged, which is how :func:`repro.simulate` hands a
    caller's generator to its one-trial batch.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.SFC64(seed))


class BatchKernel:
    """State and one-round transition for a batch of trials of one protocol.

    Kernel state is *row compacted*: per-trial arrays have one row per trial,
    and the first ``k`` rows are the trials still running.  ``trial_ids[row]``
    maps a row back to the original trial index; the driver retires a finished
    trial by swapping its row into the tail (:meth:`swap_rows`).
    """

    name = "abstract"

    #: One ObserverGroup per trial (indexed by original trial id), or None.
    #: Set by the driver *before* :meth:`initialize`.
    trial_observers: Optional[Sequence] = None

    #: Optional dynamic-topology spec (anything
    #: :func:`repro.scenarios.resolve_dynamics` accepts).  Set by the
    #: driver *before* :meth:`initialize`; the schedule is shared by every
    #: trial of the batch.
    dynamics = None

    #: Requested frontier mode: ``"auto"`` (sparse iff the graph clears
    #: :func:`sparse_threshold` and nothing forces dense), ``"dense"``, or
    #: ``"sparse"``.  Set by the driver *before* :meth:`initialize`.  Sparse
    #: and dense are bit-identical — same draw streams, same results — so the
    #: mode never enters store keys; kernels record what actually engaged in
    #: :attr:`frontier_resolved`.
    frontier_mode = "auto"

    #: ``"sparse"`` or ``"dense"``: what :meth:`initialize` actually engaged.
    frontier_resolved = "dense"

    # ------------------------------------------------------------------
    # interface implemented by the protocol kernels
    # ------------------------------------------------------------------
    def initialize(self, graph: Graph, source: int, gens: Sequence[np.random.Generator]) -> None:
        raise NotImplementedError

    def step(self, k: int) -> None:
        """Advance the first ``k`` rows by one synchronous round."""
        raise NotImplementedError

    def complete_rows(self, k: int) -> np.ndarray:
        """(k,) bool mask over the first ``k`` rows: which have finished."""
        raise NotImplementedError

    def informed_vertex_counts(self, k: int) -> np.ndarray:
        """(k,) informed-vertex counts of the first ``k`` rows (may be a view)."""
        raise NotImplementedError

    def informed_agent_counts(self, k: int) -> np.ndarray:
        """(k,) informed-agent counts of the first ``k`` rows (0 for vertex protocols)."""
        return np.zeros(k, dtype=np.int64)

    def num_agents(self) -> int:
        return 0

    def messages_by_trial(self) -> np.ndarray:
        """(T,) messages sent, indexed by original trial."""
        return np.zeros(self.num_trials, dtype=np.int64)

    def trial_metadata(self, trial: int) -> Dict[str, Any]:
        return {}

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _setup_common(self, graph: Graph, gens) -> None:
        self.graph = graph
        self.num_trials = len(gens)
        self.trial_ids = np.arange(self.num_trials, dtype=np.int64)
        # Inverse permutation of trial_ids: _trial_to_row[trial] is the row
        # currently holding that trial.  Maintained by swap_rows so _row_of is
        # O(1) instead of a flatnonzero scan over all trials.
        self._trial_to_row = np.arange(self.num_trials, dtype=np.int64)
        self._gens = list(gens)
        self._row_arrays: List[np.ndarray] = [self.trial_ids]
        #: Ragged per-trial state (Python lists of per-row arrays — the sparse
        #: tier's frontiers); swapped alongside the row arrays.
        self._row_lists: List[list] = []
        self._row_base = (
            np.arange(self.num_trials, dtype=np.int64) * graph.num_vertices
        )[:, None]
        self._round_count = 0
        self._draw_phase = 0
        self._any_observers = bool(self.trial_observers) and any(
            bool(group) for group in self.trial_observers
        )
        schedule = _resolve_dynamics(self.dynamics)
        self._dyn = DynamicsRuntime(schedule, graph) if schedule is not None else None
        #: Per-round masks shared by all trials (None = everything active).
        self._slot_active: Optional[np.ndarray] = None
        self._vertex_active: Optional[np.ndarray] = None

    def _observer_for_row(self, row: int):
        """ObserverGroup of the trial currently held by ``row`` (may be falsy)."""
        return self.trial_observers[int(self.trial_ids[row])]

    def _resolve_frontier(self, *, supported: bool = True) -> str:
        """Decide (and record) whether the sparse tier engages for this run.

        Call after :meth:`_setup_common` (the decision reads the resolved
        dynamics and observers).  Dynamics schedules, observers and (through
        ``supported=False``) agent churn force the dense fallback even when
        sparse is requested: activity masks are
        materialized per *slot* and the edge-reporting slow path scans dense
        rows, so both are defined on — and only exercised by — the dense
        representation.  ``REPRO_FRONTIER`` overrides an ``"auto"`` request
        (an explicit ``"dense"``/``"sparse"`` from the driver wins over the
        environment).
        """
        mode = self.frontier_mode
        if mode not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown frontier mode {mode!r}")
        if mode == "auto":
            env = os.environ.get("REPRO_FRONTIER", "")
            if env in ("dense", "sparse"):
                mode = env
        blocked = not supported or self._dyn is not None or self._any_observers
        if blocked:
            self.frontier_resolved = "dense"
        elif mode == "sparse":
            self.frontier_resolved = "sparse"
        elif mode == "auto" and self.graph.num_vertices >= sparse_threshold():
            self.frontier_resolved = "sparse"
        else:
            self.frontier_resolved = "dense"
        return self.frontier_resolved

    #: Rounds of uniforms drawn per generator call (see :meth:`_raw_stream`).
    _DRAW_BLOCK = 4

    def _begin_round(self) -> None:
        """Advance the block draw phase and fetch the round's activity masks;
        call exactly once per :meth:`step`."""
        self._draw_phase = self._round_count % self._DRAW_BLOCK
        self._round_count += 1
        if self._dyn is not None:
            self._slot_active, self._vertex_active = self._dyn.round_masks(
                self._round_count
            )

    def _register_rows(self, *arrays: np.ndarray) -> None:
        """Arrays with one row (or element) per trial, kept compact by swaps."""
        self._row_arrays.extend(arrays)

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        for array in self._row_arrays:
            if array.ndim > 1:
                tmp = array[i].copy()
                array[i] = array[j]
                array[j] = tmp
            else:
                array[i], array[j] = array[j], array[i]
        for row_list in self._row_lists:
            row_list[i], row_list[j] = row_list[j], row_list[i]
        self._gens[i], self._gens[j] = self._gens[j], self._gens[i]
        self._trial_to_row[self.trial_ids[i]] = i
        self._trial_to_row[self.trial_ids[j]] = j

    def _materialized_row_base(self, width: int) -> np.ndarray:
        """(T, width) array of flat-index row offsets, shifted past the slot-0
        write sink; materialized because broadcast adds are measurably slower
        than aligned elementwise adds on the hot path."""
        return np.ascontiguousarray(
            np.broadcast_to(self._row_base + 1, (self.num_trials, width))
        )

    def _row_of(self, trial: int) -> int:
        """Row currently holding ``trial`` (rows are a permutation of trials)."""
        return int(self._trial_to_row[trial])

    def _register_row_list(self, row_list: list) -> None:
        """A Python list with one (ragged) entry per trial, kept compact by swaps."""
        self._row_lists.append(row_list)

    def _raw_stream(self, width: int, bits: int) -> Dict[str, Any]:
        """Allocate and register a block-drawn raw-bit stream.

        Each generator call fills ``_DRAW_BLOCK`` rounds of raw 64-bit words
        for one trial (amortizing per-call overhead, a sizeable share of the
        draw cost at typical batch sizes); rounds then consume the words as
        ``width`` fixed-point integers of ``bits`` bits.  The word buffer is
        swap-registered so a trial's pending rounds follow it through row
        compaction; a trial retiring mid-block simply discards its pre-drawn
        remainder, keeping every trial's stream a function of its own round
        count alone.
        """
        values_per_word = 64 // bits
        words_per_round = -(-width // values_per_word)
        words = np.empty(
            (self.num_trials, self._DRAW_BLOCK * words_per_round), dtype=np.uint64
        )
        self._register_rows(words)
        return {
            "words": words,
            "values": words.view(np.uint16 if bits == 16 else np.uint32),
            "stride": words_per_round * values_per_word,
            "width": width,
        }

    def _raw_values(self, k: int, stream: Dict[str, Any]) -> np.ndarray:
        """One round of per-trial fixed-point uniforms from a raw stream.

        A value ``u`` of ``bits`` bits maps to the offset ``(u * d) >> bits``,
        which is an *exact* truncation into ``[0, d)`` (no clamp needed) and
        deviates from per-neighbor uniformity by at most ``d * 2**-bits`` —
        streams are sized so that stays at least three orders of magnitude
        below the statistical resolution of any realistic trial count.
        """
        if self._draw_phase == 0:
            words = stream["words"]
            num_words = words.shape[1]
            for row in range(k):
                words[row] = self._gens[row].bit_generator.random_raw(num_words)
        start = self._draw_phase * stream["stride"]
        return stream["values"][:k, start : start + stream["width"]]

    def _raw_round_start(self, k: int, stream: Dict[str, Any]) -> int:
        """Refill a raw stream's block if due and return this round's offset.

        The sparse tier's entry point to the same streams :meth:`_raw_values`
        serves: the block refill (and therefore every trial's generator
        consumption) is identical, but instead of a dense ``(k, width)`` view
        the caller gets the round's start offset into ``stream["values"]``
        rows and gathers only the frontier positions it needs —
        ``values[row, start + position]`` is exactly the fixed-point value the
        dense path would have seen at that position.  That gather-not-slice
        discipline is what makes sparse results bit-identical to dense.
        """
        if self._draw_phase == 0:
            words = stream["words"]
            num_words = words.shape[1]
            for row in range(k):
                words[row] = self._gens[row].bit_generator.random_raw(num_words)
        return self._draw_phase * stream["stride"]


class NeighborSampler:
    """Uniform fixed-point neighbor sampling over the graph's CSR adjacency.

    One sampler owns one draw stream of ``width`` values per trial per round
    plus all the scratch the sampling ufunc chain needs.  Kernels create one
    sampler per logical stream (the walk stream of an agent protocol, the
    callee stream of a vertex protocol — the hybrid kernel has both) and must
    consume every sampler exactly once per round, after a single
    :meth:`BatchKernel._begin_round` call, so block refills stay aligned.

    Precision: 16-bit offsets are exact enough (bias at most
    ``max_deg * 2**-16``) only for small maximum degree; skewed families fall
    back to 32 bits.  Typed degree scalars/arrays keep the ufunc loops in the
    wide integer type (a weak Python-int operand would select the uint16 loop
    and overflow).

    Dynamic topology: when the kernel carries a schedule, the sampler also
    gathers the round's directed-slot activity at the sampled offsets —
    :meth:`round_ok` then answers, per sample, whether that interaction may
    happen this round (edge up, both endpoints alive).  The draw itself is
    unchanged (masking costs one gather, no randomness), and
    :meth:`sample_walk` additionally applies the movement semantics directly:
    an agent whose sampled traversal is blocked stays put.
    """

    def __init__(self, kernel: BatchKernel, width: int, *, lazy: bool = False) -> None:
        graph = kernel.graph
        self._kernel = kernel
        self.width = int(width)
        max_degree = int(graph.degrees.max())
        self.offset_bits = 16 if max_degree <= 64 else 32
        wide = np.int32 if self.offset_bits == 16 else np.int64
        shape = (kernel.num_trials, self.width)
        self._stream = kernel._raw_stream(self.width, self.offset_bits)
        # Laziness is one extra 16-bit coin per value ("stay put" at p = 1/2).
        self._lazy_stream = kernel._raw_stream(self.width, 16) if lazy else None
        self._stay = np.empty(shape, dtype=bool) if lazy else None
        self._scaled = np.empty(shape, dtype=wide)
        #: Dead after sampling; kernels reuse it as int64 scatter scratch.
        self.offsets = np.empty(shape, dtype=np.int64)
        self._starts = np.empty(shape, dtype=np.int64)
        self.sampled = np.empty(shape, dtype=np.int64)
        # Per-sample activity of the round's topology masks; allocated lazily
        # on the first round whose masks are materialized (see round_ok), so
        # all-active schedules cost nothing here.
        self.active = None
        self._blocked = None
        self._active_valid = False
        # d-regular graphs admit a scalar fast path: every degree is d and the
        # CSR row of vertex v starts exactly at v * d.
        self._regular_degree = (
            graph.regularity_degree() if graph.is_regular() else None
        )
        if self._regular_degree is not None:
            self._degree_wide = wide(self._regular_degree)
        else:
            self._degrees_wide = graph.degrees.astype(wide)
        self._vertex_starts = graph.indptr[:-1]

    def sample_walk(self, k: int, positions: np.ndarray) -> np.ndarray:
        """One uniform neighbor of ``positions`` per slot (lazy-aware).

        Returns a ``(k, width)`` view of the sampler's output buffer; the
        caller owns copying it into kernel state.
        """
        graph = self._kernel.graph
        raw = self._kernel._raw_values(k, self._stream)
        scaled = self._scaled[:k]
        offsets = self.offsets[:k]
        starts = self._starts[:k]
        out = self.sampled[:k]
        if self._regular_degree is not None:
            np.multiply(raw, self._degree_wide, out=scaled)
            np.multiply(positions, self._regular_degree, out=starts)
        else:
            # Gather degrees into the scratch, then scale in place (elementwise,
            # so reading and writing the same buffer is safe).
            np.take(self._degrees_wide, positions, out=scaled, mode="clip")
            np.multiply(raw, scaled, out=scaled)
            np.take(graph.indptr, positions, out=starts, mode="clip")
        np.right_shift(scaled, self.offset_bits, out=scaled)
        np.add(starts, scaled, out=offsets)
        np.take(graph.indices, offsets, out=out, mode="clip")
        # A blocked traversal (edge down, or either endpoint crashed) leaves
        # the agent where it is; a lazy stay overrides either way.
        self._gather_active(k)
        if self._active_valid:
            blocked = np.logical_not(self.active[:k], out=self._blocked[:k])
            np.copyto(out, positions, where=blocked)
        if self._lazy_stream is not None:
            lazy = self._kernel._raw_values(k, self._lazy_stream)
            stay = self._stay[:k]
            np.less(lazy, 1 << 15, out=stay)
            np.copyto(out, positions, where=stay)
        return out

    def sample_per_vertex(self, k: int) -> np.ndarray:
        """One uniform neighbor of every vertex (``width == num_vertices``).

        The draw shape is one value per vertex regardless of protocol state,
        which keeps each trial's stream a function of the round number only;
        kernels simply ignore the draws of vertices that do not act.
        """
        graph = self._kernel.graph
        raw = self._kernel._raw_values(k, self._stream)
        scaled = self._scaled[:k]
        offsets = self.offsets[:k]
        out = self.sampled[:k]
        if self._regular_degree is not None:
            np.multiply(raw, self._degree_wide, out=scaled)
        else:
            np.multiply(raw, self._degrees_wide, out=scaled)
        np.right_shift(scaled, self.offset_bits, out=scaled)
        np.add(scaled, self._vertex_starts, out=offsets)
        np.take(graph.indices, offsets, out=out, mode="clip")
        self._gather_active(k)
        return out

    def _gather_active(self, k: int) -> None:
        """Gather this round's slot activity at the sampled offsets.

        Must run while ``offsets`` still holds the sample's flat CSR slots
        (kernels reuse that buffer as scatter scratch afterwards).
        """
        slot_active = self._kernel._slot_active
        self._active_valid = slot_active is not None
        if self._active_valid:
            if self.active is None:
                shape = (self._kernel.num_trials, self.width)
                self.active = np.empty(shape, dtype=bool)
                self._blocked = np.empty(shape, dtype=bool)
            np.take(slot_active, self.offsets[:k], out=self.active[:k], mode="clip")

    def round_ok(self, k: int) -> Optional[np.ndarray]:
        """(k, width) per-sample activity of the round, or None (all active).

        Valid after the round's sample call; ``None`` on rounds with no
        materialized masks, which is the all-active fast path.
        """
        return self.active[:k] if self._active_valid else None
