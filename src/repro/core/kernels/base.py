"""Shared machinery for the vectorized protocol kernels.

A *kernel* is the single source of truth for one protocol's round transition:
state lives in 2-D numpy arrays shaped ``(trials, ...)`` and one :meth:`step`
advances every still-running trial by one synchronous round (push may
advance by a block of rounds, see :mod:`.vertex`).  The batched
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
* **Vertex-id width.**  The samplers gather neighbors from
  :func:`sampling_adjacency`: the CSR column indices in the width
  :func:`vertex_id_dtype` picks.  Below ``_NARROW_MIN_BYTES`` of int64
  adjacency (768 KiB, 98 304 slots) that is ``Graph.indices`` itself; at or
  above it, a copy with ``uint16`` ids when ``n <= 2**16`` and ``uint32``
  ids otherwise, built once and cached on the graph.  The samplers' output
  buffers share the width; callers widen only what they index with into the
  int64 flat indices of the informed state, and observers and results see
  int64 ids only.  It pays because a neighbor draw is a gather at a random
  slot: above the crossover the int64 adjacency and a round's per-trial
  buffers overflow a 2 MiB L2, and at ``n = 2**16, d = 12`` the ``uint16``
  copy is 1.5 MiB instead of 6 MiB.  Below it everything is cache resident
  and the casting loops that narrow ids need cost more than they save.
  Measured on a 2-vCPU x86 VM (2 MiB L2 per core), one gather plus the
  row-base add on random 12-regular adjacencies, int64 vs narrow: 8 trials,
  n = 4096 43 vs 49 µs, n = 6144 183 vs 116 µs, n = 8192 158 vs 89 µs;
  2 trials, n = 8192 40 vs 40 µs, n = 12288 90 vs 58 µs; 32 trials,
  n = 2048 173 vs 178 µs, n = 4096 382 vs 368 µs.  The crossover moves with
  the trial count, so the threshold sits where no measured trial count
  loses.  Whole five-trial runs on the paper's heavy binary trees agree:
  n = 511 (66 300 slots, kept int64) ran 3% slower narrowed, the
  1021-vertex siamese tree (132 600 slots) 17% faster, n = 1023 (263 676
  slots) even.
* **Scratch arena.**  A kernel's per-round scratch — the samplers' scaled
  draws, CSR slots (``offsets``) and sampled ids, the flat state indices and
  scatter masks, the gathered flags — comes from one arena
  (:meth:`BatchKernel._scratch`): flat buffers keyed by role and dtype, each
  handed out as contiguous ``(num_trials, width)`` views and sized for its
  widest user.  The lifetime rule: a buffer is borrowed within one phase of
  a round and never read across phases, so no scratch carries state from
  one round (or row swap) to the next.  Within a phase one role may serve
  two users in turn when the first is dead before the second writes: the
  scatter masks reuse the ``offsets`` role, whose CSR slots are dead once
  the neighbors and the slot activity are gathered.  The hybrid's
  vertex half (the push-pull exchange) and agent half (walk and visit) are
  two phases, so they share every buffer; its initialize sizes the arena for
  the wider half (:attr:`BatchKernel._arena_width`) before either claims.
  Measured at ``n = 2**16``, 8 trials, seed 0 (VmRSS polled every 0.5 ms
  per cell, 2-vCPU x86 VM), the hybrid's cell peaked at 105.9 MB on a
  power-law graph and 101.1 MB on a random 12-regular graph with one set of
  scratch per half, and at 92.4 and 90.2 MB sharing it; every other
  protocol's cell stays at or below 88.3 MB.  At 32-bit precision the
  per-vertex chain also runs in ``offsets`` itself instead of a separate
  int64 ``scaled`` buffer, so that sampler claims no ``scaled`` at all.
  The push kernel's blocks of rounds draw into a role of their own,
  ``"block"``, which ``_BLOCK_BYTES`` in :mod:`.vertex` caps over all rows.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...graphs.dynamic import DynamicsRuntime, _resolve_dynamics
from ...graphs.graph import Graph

__all__ = [
    "BatchKernel",
    "NeighborSampler",
    "batch_generator",
    "fixed_point_degrees",
    "sampling_adjacency",
    "vertex_id_dtype",
]

#: Byte size of the int64 CSR adjacency from which the samplers gather from
#: a narrow copy (the measured crossover; see "Vertex-id width" above).
_NARROW_MIN_BYTES = 768 * 1024


def vertex_id_dtype(graph: Graph) -> np.dtype:
    """Width of the vertex ids the samplers gather and hand out.

    ``int64`` while the graph's int64 adjacency is smaller than
    ``_NARROW_MIN_BYTES``; from there on ``uint16`` when ``n <= 2**16``,
    else ``uint32``.  The one place the width is decided; see "Vertex-id
    width" in the module notes.
    """
    if graph.indices.nbytes < _NARROW_MIN_BYTES:
        return np.dtype(np.int64)
    return np.dtype(np.uint16 if graph.num_vertices <= 1 << 16 else np.uint32)


def sampling_adjacency(graph: Graph) -> np.ndarray:
    """The CSR column indices the samplers gather from, in
    :func:`vertex_id_dtype` width (cached on the graph)."""
    return graph.indices_as(vertex_id_dtype(graph))


def fixed_point_degrees(graph: Graph) -> Tuple[int, Optional[int], Any]:
    """Precision and degree operand of fixed-point neighbor sampling.

    Returns ``(bits, regular_degree, degrees)``.  16-bit offsets are exact
    enough (bias at most ``max_deg * 2**-16``) only for small maximum degree;
    skewed families fall back to 32 bits.  ``degrees`` is the degree in the
    wide integer type of that precision — a scalar on ``d``-regular graphs
    (``regular_degree`` is then ``d``, else ``None``), otherwise the degree
    array.  Typed degrees keep the ufunc loops wide (a weak Python-int operand
    would select the uint16 loop and overflow).  :class:`NeighborSampler`
    keeps the result, and the sparse tier reads it from the sampler whose
    stream it shares, which is what keeps the two tiers bit-identical.
    """
    bits = 16 if int(graph.degrees.max()) <= 64 else 32
    wide = np.int32 if bits == 16 else np.int64
    regular = graph.regularity_degree() if graph.is_regular() else None
    degrees = wide(regular) if regular is not None else graph.degrees.astype(wide)
    return bits, regular, degrees


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

    #: Requested frontier mode: ``"auto"`` (each kernel picks its tier, the
    #: vertex kernels round by round), ``"dense"``, or ``"sparse"``;
    #: :func:`~repro.core.batch.run_batch` validates it.  Set by the driver
    #: *before* :meth:`initialize`.  Sparse and dense are bit-identical — same
    #: draw streams, same results — so the mode never enters store keys;
    #: kernels record what actually engaged in :attr:`frontier_resolved`.
    frontier_mode = "auto"

    #: ``"sparse"`` once any round has run in the sparse tier (after
    #: :meth:`initialize`: the tier of the first round), else ``"dense"``.
    frontier_resolved = "dense"

    #: The tier of the current round, ``"sparse"`` or ``"dense"``.
    tier = "dense"

    #: The run's round budget, which no step may pass (``None``: no budget).
    #: Set by :func:`~repro.core.batch.run_batch` *before* :meth:`initialize`.
    round_budget: Optional[int] = None

    # ------------------------------------------------------------------
    # interface implemented by the protocol kernels
    # ------------------------------------------------------------------
    def initialize(self, graph: Graph, source: int, gens: Sequence[np.random.Generator]) -> None:
        raise NotImplementedError

    def step(self, k: int) -> None:
        """Advance the first ``k`` rows by one synchronous round, or by
        several (a block of push rounds, see :mod:`.vertex`);
        :attr:`rounds_stepped` tells which."""
        raise NotImplementedError

    @property
    def rounds_stepped(self) -> int:
        """Rounds the rows have been advanced by so far."""
        return self._round_count

    def block_outcome(self, k: int, history: bool):
        """Per-round results of a step that advanced several rounds.

        Returns each of the first ``k`` rows' completion round (``0`` for a
        row still running) and, with ``history``, its ``(k, rounds)``
        informed-vertex counts after each round of the step.  Only kernels
        whose steps can advance several rounds implement it.
        """
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
        self._row_base = (
            np.arange(self.num_trials, dtype=np.int64) * graph.num_vertices
        )[:, None]
        self._row_bases: Dict[int, np.ndarray] = {}
        #: The scratch arena: one flat buffer per (role, dtype).
        self._arena: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        #: Values per row every arena buffer holds at least; a kernel whose
        #: users of one role differ in width sets it to the widest before
        #: the first claim (see "Scratch arena" in the module notes).
        self._arena_width = 0
        #: The adjacency every sampler of this kernel gathers from.
        self._adjacency = sampling_adjacency(graph)
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

    def _setup_vertex_state(self, source: int) -> None:
        """Informed-vertex state of the kernels whose vertices store the rumor.

        One boolean row per trial, the same in both tiers, viewed out of a
        flat buffer whose slot 0 is a write sink: scatters index it with
        ``flat_index * mask`` instead of extracting the masked indices, which
        is the single most expensive operation it replaces.  ``counts`` holds
        each row's informed-vertex count.
        """
        n = self.graph.num_vertices
        self._vertex_flat = np.zeros(self.num_trials * n + 1, dtype=bool)
        self.vertex_informed = self._vertex_flat[1:].reshape(self.num_trials, n)
        self.vertex_informed[:, source] = True
        self.counts = np.ones(self.num_trials, dtype=np.int64)
        self._register_rows(self.vertex_informed, self.counts)

    def _observer_for_row(self, row: int):
        """ObserverGroup of the trial currently held by ``row`` (may be falsy)."""
        return self.trial_observers[int(self.trial_ids[row])]

    def _resolve_frontier(self, *, supported: bool = True) -> str:
        """The frontier mode this run may use: ``"dense"``, ``"sparse"`` or
        ``"auto"`` (the kernel chooses).

        Call after :meth:`_setup_common` (the answer reads the resolved
        dynamics and observers).  Dynamics schedules, observers and (through
        ``supported=False``) agent churn force the dense fallback even when
        sparse is requested: activity masks are materialized per *slot* and
        the edge-reporting slow path scans dense rows, so both are defined on
        — and only exercised by — the dense representation.
        """
        if not supported or self._dyn is not None or self._any_observers:
            return "dense"
        return self.frontier_mode

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
        self._gens[i], self._gens[j] = self._gens[j], self._gens[i]
        self._trial_to_row[self.trial_ids[i]] = i
        self._trial_to_row[self.trial_ids[j]] = j

    def _scratch(self, role: str, dtype, width: int) -> np.ndarray:
        """A ``(num_trials, width)`` view of the arena buffer of ``role`` and
        ``dtype``, borrowed for one phase of a round.

        The first claim of a role allocates its buffer for
        ``max(width, _arena_width)`` values per row; later claims view the
        same memory and may not be wider.
        """
        key = (role, np.dtype(dtype))
        size = self.num_trials * width
        buffer = self._arena.get(key)
        if buffer is None:
            buffer = np.empty(self.num_trials * max(width, self._arena_width), dtype=key[1])
            self._arena[key] = buffer
        elif buffer.size < size:
            raise ValueError(
                f"scratch role {role!r} claimed {width} wide, beyond its buffer; "
                "set _arena_width to the widest user before the first claim"
            )
        return buffer[:size].reshape(self.num_trials, width)

    def working_set_bytes(self) -> int:
        """Bytes of the kernel's arrays: the registered row state (draw
        streams included) plus the scratch arena."""
        return sum(array.nbytes for array in (*self._row_arrays, *self._arena.values()))

    def _flat_row_base(self, width: int) -> np.ndarray:
        """Flat-index row offsets, shifted past the slot-0 write sink, to add
        to ``(T, width)`` vertex ids (cached per width).

        Materialized as a ``(T, width)`` array only below the vertex-id width
        crossover (see :func:`vertex_id_dtype`), where an aligned int64 add
        beats a broadcast one (gather plus add at 32 trials, n = 1024: 71 vs
        84 µs).  Above it the ids are narrow, the add is a casting loop
        either way, and the ``(T, 1)`` column is faster and saves
        ``8 T width`` bytes (8 trials, n = 8192: 89 vs 102 µs).
        """
        base = self._row_bases.get(width)
        if base is None:
            base = self._row_base + 1
            if self._adjacency.dtype == np.int64:
                base = np.ascontiguousarray(np.broadcast_to(base, (self.num_trials, width)))
            self._row_bases[width] = base
        return base

    def _row_of(self, trial: int) -> int:
        """Row currently holding ``trial`` (rows are a permutation of trials)."""
        return int(self._trial_to_row[trial])

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
        start = self._raw_round_start(k, stream)
        return stream["values"][:k, start : start + stream["width"]]

    def _raw_round_start(self, k: int, stream: Dict[str, Any]) -> int:
        """Refill a raw stream's block if due and return this round's offset.

        :meth:`_raw_values` slices the round out of this offset; the sparse
        tier calls it directly, so the block refill (and therefore every
        trial's generator consumption) is the same in both tiers.  Instead of
        a dense ``(k, width)`` view the sparse caller gets the round's start
        offset into ``stream["values"]`` rows and gathers only the frontier
        positions it needs — ``values[row, start + position]`` is exactly the
        fixed-point value the dense path would have seen at that position.  That gather-not-slice
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
    and borrows the scratch of the sampling ufunc chain from its kernel's
    arena (see "Scratch arena" in the module notes).  Kernels create one
    sampler per logical stream (the walk stream of an agent protocol, the
    callee stream of a vertex protocol — the hybrid kernel has both) and must
    consume every sampler exactly once per round, after a single
    :meth:`BatchKernel._begin_round` call, so block refills stay aligned.

    Precision and degree typing come from :func:`fixed_point_degrees`; the
    sampled vertex ids come in the width of :func:`vertex_id_dtype`, while
    the sampled CSR slots (``offsets``) stay int64.

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
        # A proxy, not a reference: the kernel owns its samplers, and a
        # sampler -> kernel reference would make every kernel a reference
        # cycle that outlives its run until the next garbage collection.
        self._kernel = weakref.proxy(kernel)
        self.width = int(width)
        self.offset_bits, self._regular_degree, self._degrees_wide = (
            fixed_point_degrees(graph)
        )
        self._stream = kernel._raw_stream(self.width, self.offset_bits)
        # Laziness is one extra 16-bit coin per value ("stay put" at p = 1/2).
        self._lazy_stream = kernel._raw_stream(self.width, 16) if lazy else None
        self._stay = kernel._scratch("stay", bool, self.width) if lazy else None
        self._adjacency = kernel._adjacency
        # Claimed on first use: 32-bit per-vertex sampling never needs it.
        self._scaled = None
        #: The sampled CSR slots, int64.
        self.offsets = kernel._scratch("offsets", np.int64, self.width)
        #: The sampled vertex ids, in the adjacency's width.
        self.sampled = kernel._scratch("sampled", self._adjacency.dtype, self.width)
        # Per-sample activity of the round's topology masks; claimed on the
        # first round whose masks are materialized (see round_ok), so
        # all-active schedules cost nothing here.
        self.active = None
        self._blocked = None
        self._active_valid = False
        self._vertex_starts = graph.indptr[:-1]

    def sample_walk(self, k: int, positions: np.ndarray) -> np.ndarray:
        """One uniform neighbor of ``positions`` per slot (lazy-aware).

        ``positions`` are int64.  Returns a ``(k, width)`` view of the
        sampler's output buffer, in the adjacency's width; the caller owns
        copying it into kernel state.
        """
        graph = self._kernel.graph
        raw = self._kernel._raw_values(k, self._stream)
        scaled = self._scaled_rows(k)
        offsets = self.offsets[:k]
        out = self.sampled[:k]
        # Row starts go straight into ``offsets``; the offset within the row
        # is added in place.
        if self._regular_degree is not None:
            # Every degree is d and the CSR row of vertex v starts at v * d.
            np.multiply(raw, self._degrees_wide, out=scaled)
            np.multiply(positions, self._regular_degree, out=offsets)
        else:
            # Gather degrees into the scratch, then scale in place (elementwise,
            # so reading and writing the same buffer is safe).
            np.take(self._degrees_wide, positions, out=scaled, mode="clip")
            np.multiply(raw, scaled, out=scaled)
            np.take(graph.indptr, positions, out=offsets, mode="clip")
        np.right_shift(scaled, self.offset_bits, out=scaled)
        np.add(offsets, scaled, out=offsets)
        np.take(self._adjacency, offsets, out=out, mode="clip")
        # A blocked traversal (edge down, or either endpoint crashed) leaves
        # the agent where it is; a lazy stay overrides either way.  Vertex ids
        # fit the output width, so the narrowing copies are exact.
        self._gather_active(k)
        if self._active_valid:
            blocked = np.logical_not(self.active[:k], out=self._blocked[:k])
            np.copyto(out, positions, where=blocked, casting="unsafe")
        if self._lazy_stream is not None:
            lazy = self._kernel._raw_values(k, self._lazy_stream)
            stay = self._stay[:k]
            np.less(lazy, 1 << 15, out=stay)
            np.copyto(out, positions, where=stay, casting="unsafe")
        return out

    def sample_per_vertex(self, k: int) -> np.ndarray:
        """One uniform neighbor of every vertex (``width == num_vertices``).

        The draw shape is one value per vertex regardless of protocol state,
        which keeps each trial's stream a function of the round number only;
        kernels simply ignore the draws of vertices that do not act.
        """
        raw = self._kernel._raw_values(k, self._stream)
        offsets = self.offsets[:k]
        out = self.sampled[:k]
        # At 32 bits the wide type is int64 and the chain runs in ``offsets``
        # itself; at 16 bits the int32 chain beats writing int64 (8 trials,
        # n = 2**16, 2-vCPU x86 VM: 32 bits 0.91 in place vs 1.15 ms with a
        # separate buffer, 16 bits 0.80 ms int32 vs 0.91 ms int64).
        scaled = offsets if self.offset_bits == 32 else self._scaled_rows(k)
        # A scalar degree on regular graphs, the degree array otherwise.
        np.multiply(raw, self._degrees_wide, out=scaled)
        np.right_shift(scaled, self.offset_bits, out=scaled)
        np.add(scaled, self._vertex_starts, out=offsets)
        np.take(self._adjacency, offsets, out=out, mode="clip")
        self._gather_active(k)
        return out

    def _scaled_rows(self, k: int) -> np.ndarray:
        """The first ``k`` rows of the wide-typed fixed-point scratch."""
        if self._scaled is None:
            self._scaled = self._kernel._scratch(
                "scaled", self._degrees_wide.dtype, self.width
            )
        return self._scaled[:k]

    def _gather_active(self, k: int) -> None:
        """Gather this round's slot activity at the sampled offsets.

        Must run while ``offsets`` still holds the sample's flat CSR slots
        (kernels reuse that buffer as scatter scratch afterwards).
        """
        slot_active = self._kernel._slot_active
        self._active_valid = slot_active is not None
        if self._active_valid:
            if self.active is None:
                self.active = self._kernel._scratch("active", bool, self.width)
                self._blocked = self._kernel._scratch("blocked", bool, self.width)
            np.take(slot_active, self.offsets[:k], out=self.active[:k], mode="clip")

    def round_ok(self, k: int) -> Optional[np.ndarray]:
        """(k, width) per-sample activity of the round, or None (all active).

        Valid after the round's sample call; ``None`` on rounds with no
        materialized masks, which is the all-active fast path.
        """
        return self.active[:k] if self._active_valid else None
