"""The vertex half of the call protocols: the push and the pull direction.

PUSH, PULL and PUSH-PULL keep one boolean informed flag per vertex per trial
(:meth:`~repro.core.kernels.base.BatchKernel._setup_vertex_state`, the same
array in both tiers) and sample one uniformly random neighbor — the *callee* —
per vertex per round.  Each round runs some of two call directions, both
judged on the state before the round: in the *push* direction an informed
caller informs its callee, in the *pull* direction an uninformed caller learns
from an informed callee.  PUSH-PULL is the union of the two (Karp et al.,
FOCS 2000).  :class:`VertexKernel` states each direction once per tier, and
counts one message per caller; a protocol selects its directions with the
``_pushes``/``_pulls`` flags and adds only its observer edge reporting.  The
hybrid kernel runs the same vertex half under its agents.

Two tiers, chosen round by round
--------------------------------
The *dense* tier runs each direction as whole ``(trials, n)`` boolean
algebra.  The *sparse* tier drives all rows from two flat index lists of
(row, vertex) entries — the *frontier* (informed vertices that still have an
uninformed neighbor, for the push direction) and the *uninformed list* (for
the pull direction) — so its work follows the live frontier instead of ``n``
and a round is a fixed number of numpy calls whatever the number of rows.  A rumor's run has thin
phases on either side of a hot phase in which nearly every vertex calls, and
each tier wins one of them; with ``frontier="auto"`` the kernel picks the
cheaper tier before every round, like direction-optimizing BFS (Beamer,
Asanović and Patterson, SC 2012).  :meth:`VertexKernel._choose_tier` states
the cost model.

Bit-identity between the tiers is a hard invariant, achieved by splitting
randomness from arithmetic: both tiers read the one callee stream of the
kernel's :class:`~repro.core.kernels.base.NeighborSampler`, refilled on the
same schedule (one fixed-width block per trial per ``_DRAW_BLOCK`` rounds,
see :meth:`~repro.core.kernels.base.BatchKernel._raw_round_start`); the
sparse step merely *reads* the stream at the positions it needs, with the
sampler's fixed-point arithmetic.  Vertices outside the frontier would have
drawn values that cannot change state (an informed vertex with no uninformed
neighbor pushes into informed territory; the dense path ignores informed
vertices' pull draws), so skipping the read skips no information.  Both tiers
update the same informed array and ``counts``, so switching to dense is free
and switching to sparse only rebuilds the index lists from that array.

Dynamics schedules and observers force the dense fallback: activity masks
are materialized per CSR slot and edge reporting scans dense rows, so both
are defined on the dense representation (see
:meth:`~repro.core.kernels.base.BatchKernel._resolve_frontier`).

Blocks of push rounds
---------------------
Push on the star and the double star (Lemmas 2(a) and 3) is a coupon
collector: Θ(n log n) rounds, nearly all of which inform at most one leaf
per trial, so a sparse round's cost is its fixed numpy calls.  Under
``frontier="auto"`` the push-only kernel can instead advance the sparse tier
by a *block* of rounds in one :meth:`~VertexKernel.step`
(:meth:`VertexKernel._push_block`).  The rule: let F be the frontier.  Calls
from outside F inform nobody, and a vertex leaving F changes nothing (its
later calls reach informed vertices), so rounds of push are exact from F's
callees alone up to the first round in which a newly informed vertex has an
uninformed neighbor and joins F.  A block therefore

- draws its rounds' refills of every row into the scratch-arena role
  ``"block"``, word for word what the per-round refills would draw (the same
  ``_DRAW_BLOCK``-aligned calls of each trial's generator), and reads F's
  values there with the fixed-point chain of :meth:`_entry_callees`;
- takes each uninformed vertex's first call round over the block;
- ends with the first round that informs a vertex with an uninformed
  neighbor at the block's start, the round budget
  (:attr:`~repro.core.kernels.base.BatchKernel.round_budget`), the byte cap
  ``_BLOCK_BYTES`` on its draw scratch, its planned length, or the round in
  which the last row completes; every row still running then gets back the
  generator state it had before the refills past that round;
- derives the informed counts, the messages (one per informed caller per
  round, up to each row's completion round), each row's completion round and
  the per-round ``record_history`` counts
  (:meth:`VertexKernel.block_outcome`) from the first call rounds.

On the star no leaf ever joins F, so a block runs to the cap or to
completion; on the double star blocks are cut when the second centre is
informed.  :func:`~repro.core.batch.run_batch` retires each row at its own
completion round and records a history snapshot for every round of the
block.  Forced tiers, dynamics, observers, any pull direction and the
hybrid keep one round per step.  Blocks run on graphs with at most
``_FEW_HUBS`` non-leaf vertices (the stars and double stars), where the
expected wait for a round that can grow F is known, and
:meth:`VertexKernel._choose_tier` chooses a block only where it is cheaper
than both tiers.  With tracing on, each block is a ``kernel.block`` event
(its start round, rounds advanced, rows and why it ended).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ...telemetry import trace_enabled, trace_event
from .base import BatchKernel, NeighborSampler

__all__ = ["SparseVertexMixin", "VertexKernel"]

# Cost model of a sparse round, in units of one vertex of a dense round (a
# dense round costs ``n`` per row); see VertexKernel._choose_tier.
#: Settle of a round that informed anyone: a few dozen small numpy calls.
_SPARSE_ROUND_COST = 2000
#: Fixed cost of a sparse row beyond its draw refill.
_SPARSE_ROW_COST = 100
#: The draw refill both tiers pay per row: ``n >> _DRAW_SHIFT``.
_DRAW_SHIFT = 4
#: Weight of the last round in the running share of rounds that inform.
_HIT_WEIGHT = 0.25
#: Per frontier vertex: gathers of its draw, adjacency slot and callee state.
_FRONTIER_COST = 4
#: Per uninformed vertex, in the pull direction.
_UNINFORMED_COST = 2
#: Per neighbor slot of a newly informed vertex: one count decrement.
_NEIGHBOR_COST = 2
#: Hysteresis: enter the sparse tier below this share of the dense cost (the
#: margin pays the O(n) rebuild), leave it above the other.
_ENTER_SPARSE = 0.7
_LEAVE_SPARSE = 1.0
#: Up to this many newly informed vertices settle one by one in Python.
_FEW_NEWLY = 8
#: Byte cap of a block's draw scratch (the arena role ``"block"``): the raw
#: words of every row for all of the block's draw refills.
_BLOCK_BYTES = 2 << 20
#: Bytes of raw words per generator call of a block, in whole refills: the
#: call's output stays small and cache resident until it is copied to the
#: scratch (the paper's eight star and double-star push cells, 5 trials:
#: 175 ms against 230 ms with one call per row, and a 2.3 MB lower peak).
_DRAW_CHUNK_BYTES = 64 << 10
#: The fixed cost of one step, which the tiers' costs leave out because both
#: pay it every round; a block pays it once for all of its rounds.
_ROUND_FLOOR = 2000
#: Fixed cost of a block, its step's floor included.
_BLOCK_COST = 12000
#: Per row of a block: its generator call, and saving and restoring its state.
_BLOCK_ROW_COST = 500
#: Blocks run on graphs with at most this many non-leaf vertices, where a
#: block's expected length is known (see VertexKernel._block_plan).
_FEW_HUBS = 8


class _Entries:
    """One flat index list of the sparse tier.

    ``ids`` are flat state indices ``row * n + 1 + vertex`` (into
    ``_vertex_flat``, past its slot-0 sink) of all running rows;
    ``operands`` caches a callee read's per-entry operands until the list
    changes (see :meth:`SparseVertexMixin._entry_callees`).
    """

    __slots__ = ("ids", "operands")

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids
        self.operands = None


class SparseVertexMixin:
    """Index lists and callee reads of the sparse tier.

    The frontier (with uninformed-neighbor counts) serves the push
    direction, the uninformed list the pull direction; each is one flat
    :class:`_Entries` list over all running rows.  A row swap moves its
    entries.  A row retires only once every vertex is informed, when both of
    its lists are already empty, so retiring needs no list work.
    """

    #: Which call directions run.  The push direction walks the informed
    #: frontier, the pull direction the uninformed list.  Subclasses override.
    _pushes = False
    _pulls = False

    def _setup_sparse_vertex(self, graph) -> None:
        """Allocate the sparse tier; :meth:`_enter_sparse` fills its lists."""
        n = graph.num_vertices
        self._frontier = self._uninformed = None
        values = self._callee_sampler._stream["values"]
        self._callee_values = values.reshape(-1)
        self._values_width = values.shape[1]
        if self._pushes:
            # Uninformed-neighbor counts drive frontier membership: an
            # informed vertex leaves the frontier for good once its count
            # hits zero.  Flat like the informed state: one index for both.
            self._uninf_flat = np.empty(self.num_trials * n + 1, dtype=np.int32)
            self._uninf_nbr = self._uninf_flat[1:].reshape(self.num_trials, n)
            self._register_rows(self._uninf_nbr)

    def _enter_sparse(self, k: int) -> None:
        """Rebuild the lists of the first ``k`` rows from the informed array.

        O(k n) plus the volume of the smaller of the informed and the
        uninformed set: the uninformed-neighbor counts are a bincount over
        the neighbors of the uninformed, or the degrees minus one over the
        neighbors of the informed; the frontier is the informed entries whose
        count is above zero.
        """
        size = k * self.graph.num_vertices
        informed = self._vertex_flat[1 : size + 1]
        few_informed = 2 * int(self.counts[:k].sum()) <= size
        if self._pulls or not few_informed:
            uninformed = np.flatnonzero(~informed) + 1
        if self._pulls:
            self._uninformed = _Entries(uninformed)
        if self._pushes:
            if few_informed:
                self._uninf_nbr[:k] = self.graph.degrees
                informed_ids = np.flatnonzero(informed) + 1
                self._add_counts(self._neighbor_entries(informed_ids), size + 1, -1)
            else:
                self._uninf_flat[: size + 1] = 0
                self._add_counts(self._neighbor_entries(uninformed), size + 1, 1)
            alive = self._uninf_flat[1 : size + 1] > 0
            self._frontier = _Entries(np.flatnonzero(informed & alive) + 1)

    def swap_rows(self, i: int, j: int) -> None:
        """Swap two rows, moving their entries along."""
        super().swap_rows(i, j)
        if i == j or self.tier != "sparse":
            return
        n = self.graph.num_vertices
        for entries in (self._frontier, self._uninformed):
            if entries is not None:
                rows = (entries.ids - 1) // n
                entries.ids = entries.ids + n * ((rows == i) * (j - i) + (rows == j) * (i - j))
                entries.operands = None

    def _neighbors(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of the vertex ids ``ids``, in the
        sampled vertex-id width."""
        return self._adjacency[self.graph._frontier_slots(ids.astype(np.int64, copy=False))]

    def _neighbor_entries(self, ids: np.ndarray) -> np.ndarray:
        """Flat state indices of the neighbors of the entries ``ids``, each
        in its entry's row."""
        n = self.graph.num_vertices
        if ids.size <= _FEW_NEWLY:
            # One CSR slice per entry beats the batch path's dozen calls.
            indptr, parts = self.graph.indptr, [np.empty(0, dtype=np.int64)]
            for entry in ids.tolist():
                v = (entry - 1) % n
                parts.append(self._adjacency[indptr[v] : indptr[v + 1]] + np.int64(entry - v))
            return np.concatenate(parts)
        positions = (ids - 1) % n
        return self._neighbors(positions) + np.repeat(ids - positions, self.graph.degrees[positions])

    def _entry_operands(self, entries: _Entries):
        """An entry list's operands of the callee chain, computed once per
        list: draw index in the stream (round offset 0), CSR row start,
        degree and row base (the flat state index of the entry's vertex 0)."""
        if entries.operands is None:
            sampler = self._callee_sampler
            rows, positions = np.divmod(entries.ids - 1, self.graph.num_vertices)
            d = sampler._regular_degree
            entries.operands = (
                rows * self._values_width + positions,
                positions * d if d is not None else self.graph.indptr[positions],
                sampler._degrees_wide if d is not None else sampler._degrees_wide[positions],
                entries.ids - positions,
            )
        return entries.operands

    def _callee_chain(self, draws: np.ndarray, slots, degrees) -> np.ndarray:
        """Sampled callees (in the sampled vertex-id width) of fixed-point
        ``draws``: raw bits times the (wide-typed) degree, truncated by the
        precision shift, into the CSR row starting at ``slots``.  Reproduces
        :meth:`NeighborSampler.sample_per_vertex` value for value."""
        offsets = (draws * degrees) >> self._callee_sampler.offset_bits
        return self._adjacency[slots + offsets]

    def _entry_callees(self, entries: _Entries, start: int):
        """The entries' sampled callees (in the sampled vertex-id width) and
        the flat state index of each entry's row, to add to them.

        ``start`` is the round's offset from ``_raw_round_start``.
        """
        reads, slots, degrees, bases = self._entry_operands(entries)
        return self._callee_chain(self._callee_values[start:][reads], slots, degrees), bases

    def _sparse_callees(self, row, start: int, positions: np.ndarray) -> np.ndarray:
        """Sampled callee of each vertex id in ``positions`` of ``row`` (one
        row, or one row per position), bit-identical to the dense sampler."""
        ids = row * self.graph.num_vertices + 1 + positions.astype(np.int64)
        return self._entry_callees(_Entries(ids), start)[0]

    def _add_counts(self, entries: np.ndarray, size: int, sign: int) -> None:
        """Add ``sign`` to the uninformed-neighbor count of each entry, once
        per occurrence, within the first ``size`` flat slots: an unbuffered
        add, or a bincount once the entries are a sizable share of them."""
        if entries.size >= size >> 3:
            self._uninf_flat[:size] += sign * np.bincount(entries, minlength=size).astype(np.int32)
        else:
            np.add.at(self._uninf_flat, entries, sign)

    def _sparse_note_informed(self, k: int, newly: np.ndarray) -> None:
        """Informed counts, uninformed-neighbor counts and the frontier after
        the entries ``newly`` (distinct) became informed.

        Each neighbor of a newly informed vertex has one fewer uninformed
        neighbor.
        """
        n = self.graph.num_vertices
        if newly.size <= _FEW_NEWLY:
            for entry in newly.tolist():
                self.counts[(entry - 1) // n] += 1
        else:
            np.add.at(self.counts, (newly - 1) // n, 1)
        if not self._pushes:
            return
        neighbors = self._neighbor_entries(newly)
        self._add_counts(neighbors, k * n + 1, -1)
        counts = self._uninf_flat
        # Only a neighbor of a newly informed vertex can have left the frontier.
        emptied = np.count_nonzero(counts[neighbors]) < neighbors.size
        joined = newly[counts[newly] > 0]
        if emptied or joined.size:
            frontier = self._frontier.ids
            self._frontier = _Entries(np.concatenate([frontier[counts[frontier] > 0], joined]))


class VertexKernel(SparseVertexMixin, BatchKernel):
    """Base kernel for the protocols whose vertices call their neighbors.

    A round is :meth:`_count_messages`, then :meth:`_exchange` (the tier
    choice and the enabled directions), then :meth:`_settle` (counts and
    sparse index lists).  Subclasses set the direction flags and implement the
    observer edge reporting.
    """

    def initialize(self, graph, source, gens):
        self._setup_common(graph, gens)
        self._setup_calls(graph, int(source), self._resolve_frontier())

    def _setup_calls(self, graph, source: int, mode: str) -> None:
        """Informed state, message counters, the callee stream and the tiers.

        ``mode`` is :meth:`_resolve_frontier`'s answer: a forced tier, or
        ``"auto"`` for the per-round choice.
        """
        self._setup_vertex_state(source)
        n = graph.num_vertices
        self._messages = np.zeros(self.num_trials, dtype=np.int64)
        self._register_rows(self._messages)
        #: Vertices informed in the last round, over all running rows, and
        #: the running share of rounds that informed anyone: the cost model's
        #: estimates of the next round's count decrements and settle.
        self._newly_total = 0
        self._hit_share = 0.0
        # Both tiers read this sampler's stream.
        self._callee_sampler = NeighborSampler(self, n)
        self._callee_flat = self._scratch("flat", np.int64, n)
        self._callee_masked = self._scratch("offsets", np.int64, n)
        self._callee_row_base1 = self._flat_row_base(n)
        if self._pulls:
            self._callee_informed = self._scratch("gathered", bool, n)
            self._pulled = self._scratch("pulled", bool, n)
        self.tier = "dense"
        self._sparse_work = 0
        # A frontier leaf's one neighbor is uninformed, so the leaf learned
        # the rumor without it: only the source can.  Hence at most the
        # non-leaf vertices plus one per row are in the frontier.
        hubs = int(np.count_nonzero(graph.degrees > 1))
        self._frontier_per_row = hubs + 1
        # Blocks of push rounds (see the module notes): only under "auto",
        # where the byte cap holds two draw refills of every row, and where
        # few non-leaf vertices make a block's expected length known.
        per_refill = self._callee_sampler._stream["words"].shape[1]
        self._block_refills = _BLOCK_BYTES // (8 * self.num_trials * per_refill)
        self._blocks = (
            mode == "auto"
            and self._pushes
            and not self._pulls
            and self._block_refills >= 2
            and hubs <= _FEW_HUBS
        )
        if self._blocks:
            # The calls that can grow the frontier (see _block_plan): from
            # informed j to uninformed i at rate 1 / degree(j) if adjacent.
            ids = np.flatnonzero(graph.degrees > 1)
            if graph.degrees[source] <= 1:
                ids = np.append(ids, source)
            adjacent = np.array([[graph.has_edge(i, j) for j in ids.tolist()] for i in ids.tolist()])
            self._hub_ids = ids
            self._hub_rates = adjacent / np.maximum(graph.degrees[ids], 1)
        # Below this size a sparse round never pays: a row's fixed cost and
        # draw refill alone exceed the entry share of a dense row.  A block
        # may still.
        self._switching = mode == "auto" and (
            self._blocks or _SPARSE_ROW_COST + (n >> _DRAW_SHIFT) < _ENTER_SPARSE * n
        )
        self._mean_degree = 2.0 * graph.num_edges / n
        if mode == "sparse" or self._switching:
            self._setup_sparse_vertex(graph)
            if mode == "sparse" or self._choose_tier(self.num_trials) != "dense":
                self._switch_tier(self.num_trials, "sparse")

    def step(self, k):
        self._begin_round()
        if self._next_tier(k) == "block":
            self._push_block(k)
            return
        self._count_messages(k)
        self._settle(k, self._exchange(k))

    def _next_tier(self, k: int) -> str:
        """Choose the round's tier (once per step) and switch to it; returns
        the choice, which may be a block of the sparse tier."""
        if not self._switching:
            return self.tier
        choice = self._choose_tier(k)
        tier = "dense" if choice == "dense" else "sparse"
        if tier != self.tier:
            self._switch_tier(k, tier)
        return choice

    def _count_messages(self, k: int) -> None:
        """Add the round's messages of the first ``k`` rows: one per caller
        (pre-round state), so every vertex when both directions run."""
        n = self.graph.num_vertices
        if self._pushes and self._pulls:
            self._messages[:k] += n
        elif self._pushes:
            self._messages[:k] += self.counts[:k]
        else:
            self._messages[:k] += n - self.counts[:k]

    def _report_edges(self, k: int, callees: np.ndarray, ok) -> None:
        """Report the round's edges to the observers, before any update.

        ``callees`` is the ``(k, n)`` callee sample and ``ok`` the round's
        per-call activity (``None`` when every call may happen); dense only.
        """
        raise NotImplementedError

    def _choose_tier(self, k: int) -> str:
        """The cheapest way to run the next round of the first ``k`` rows:
        ``"dense"``, ``"sparse"``, or ``"block"`` (a block of push rounds in
        the sparse tier, see the module notes).

        Cost model, in units of one vertex of a dense round (about 10 ns on
        the 2-vCPU x86 VM the constants were fit on): beyond a fixed floor,
        which a sparse round matches, a dense round costs ``n`` per row.  A
        sparse round costs ``_SPARSE_ROUND_COST`` for a settle with work,
        weighted by the running share of rounds that informed anyone (a
        round that informs nobody settles nothing); per row
        ``_SPARSE_ROW_COST`` plus the draw refill both tiers pay,
        ``n >> _DRAW_SHIFT``; ``_FRONTIER_COST`` per frontier vertex (push
        direction), ``_UNINFORMED_COST`` per uninformed vertex (pull
        direction) and ``_NEIGHBOR_COST`` per count decrement, estimated as
        the mean degree times the last round's newly informed (push
        direction).  The fixed terms come from per-round timings of push on
        stars and double stars with ``n`` = 256 to 1024 and 1 to 20 trials,
        the entry terms from random 12-regular and power-law graphs with
        ``n = 2^16``.  The sparse tier knows its list sizes; the dense tier
        bounds the frontier in O(k) by the informed count, the mean degree
        times the uninformed count (every frontier vertex is an informed
        neighbor of an uninformed one) and the non-leaf vertices plus one per
        row (a frontier leaf's one neighbor is uninformed, so only the source
        leaf can be one), and skips even that when the fixed terms alone rule
        sparse out.  Hysteresis keeps the tier from oscillating: the kernel
        enters the sparse tier below ``_ENTER_SPARSE`` of the dense cost and
        leaves it above ``_LEAVE_SPARSE``.

        A block that draws ``R`` rounds and is expected to run ``L`` of them
        (:meth:`_block_plan`) pays its fixed cost, ``_BLOCK_COST + k
        _BLOCK_ROW_COST``, once instead of the floor ``_ROUND_FLOOR`` of
        every round, so per round it costs ``(_BLOCK_COST + k
        _BLOCK_ROW_COST) / L - _ROUND_FLOOR``, plus the draw refill (times
        ``(R + L) / L`` when ``L < R``: a cut block redraws its rounds to
        rewind the streams) and the same count decrements; its frontier, at
        most a few vertices per row, costs next to nothing.  It is chosen
        when that is below both the sparse round and the tier's limit.  The
        block constants are fit to timed blocks of push on stars (``n`` =
        256 to 4096, 1 to 20 trials, 4 to 64 rounds, and whole star(1024)
        runs): 90 to 150 µs a block and 5 µs a row (its generator calls and
        state) besides the draws, against 25 to 28 µs for a sparse round
        that informs nobody, of which the model's terms account for 2 to
        8 µs.
        """
        n = self.graph.num_vertices
        limit = (_LEAVE_SPARSE if self.tier == "sparse" else _ENTER_SPARSE) * k * n
        work = _SPARSE_ROUND_COST * self._hit_share + k * (_SPARSE_ROW_COST + (n >> _DRAW_SHIFT))
        newly = self._newly_total
        if self.tier == "sparse":
            frontier = self._frontier.ids.size if self._pushes else 0
            uninformed = self._uninformed.ids.size if self._pulls else 0
        elif work >= limit and not self._blocks:
            uninformed = frontier = newly = 0  # the fixed part alone rules sparse out
        else:
            informed = sum(self.counts[:k].tolist())
            uninformed = k * n - informed
            frontier = min(informed, self._mean_degree * uninformed, k * self._frontier_per_row)
            newly = min(newly, uninformed)
        if self._pulls:
            work += _UNINFORMED_COST * uninformed
        if self._pushes:
            newly_work = _NEIGHBOR_COST * self._mean_degree * newly
            work += _FRONTIER_COST * frontier + newly_work
        self._sparse_work = work
        if self._blocks:
            rounds, length, limit_by = self._block_plan(k)
            if length > 1:
                draws = k * (n >> _DRAW_SHIFT)
                if length < rounds:
                    # A cut block also redraws its rounds to rewind the streams.
                    draws *= (rounds + length) / length
                block = (_BLOCK_COST + k * _BLOCK_ROW_COST) / length - _ROUND_FLOOR
                block += draws + newly_work
                if block < min(work, limit):
                    self._block_rounds, self._block_limit = rounds, limit_by
                    return "block"
        return "sparse" if work < limit else "dense"

    def _block_plan(self, k: int):
        """The next block's rounds to draw, the rounds it is expected to run
        before the frontier grows, and what limits the rounds to draw.

        A leaf is informed only by its one neighbor, so only a call from an
        informed to an uninformed vertex among the non-leaf vertices and a
        leaf source can inform a vertex with an uninformed neighbor.  The
        expected length is one over the rate of those calls, summed over the
        rows; with all of those vertices informed in every row the frontier
        cannot grow, and a block runs all of :meth:`_block_span`.  A block
        draws up to its expected length.
        """
        rounds, limit_by = self._block_span()
        informed = self.vertex_informed[:k, self._hub_ids]
        # Elementwise, not a matrix product: a first BLAS call costs the
        # process its buffers.
        rate = float((self._hub_rates * ~informed[:, :, None] * informed[:, None, :]).sum())
        expected = 1.0 / rate if rate else rounds
        if expected < rounds:
            rounds, limit_by = math.ceil(expected), "plan"
        return rounds, expected, limit_by

    def _block_span(self):
        """The most rounds a block from this round may draw, and whether the
        byte cap (``"cap"``) or the round budget (``"budget"``) sets it."""
        rounds = self._block_refills * self._DRAW_BLOCK - self._draw_phase
        if self.round_budget is not None and self.round_budget - self._round_count < rounds:
            return self.round_budget - self._round_count + 1, "budget"
        return rounds, "cap"

    def _switch_tier(self, k: int, tier: str) -> None:
        """Move the first ``k`` rows to ``tier`` (the other rows have retired)."""
        if self._switching and trace_enabled():
            trace_event(
                "kernel.tier",
                protocol=self.name,
                round=self._round_count,
                rows=k,
                direction=f"{self.tier}->{tier}",
                sparse_work=float(self._sparse_work),
                dense_work=k * self.graph.num_vertices,
            )
        if tier == "sparse":
            self._enter_sparse(k)
            self.frontier_resolved = "sparse"
        self.tier = tier

    def _push_block(self, k: int) -> None:
        """Up to ``_block_rounds`` rounds of push for the first ``k`` rows in
        one step, cut at the first round in which the frontier may grow (the
        block rule in the module notes).

        The block's draw refills of every row go to the arena role
        ``"block"``, behind a copy of the current refill when the block
        starts inside one, so round ``j`` of the block reads the words the
        per-round path would.  Once the cut is known, every row still
        running gets back the generator state it had before the refills the
        block did not use, and the stream's buffer gets the refill of the
        block's last round.
        """
        n = self.graph.num_vertices
        start, phase, rounds = self._round_count - 1, self._draw_phase, self._block_rounds
        stream = self._callee_sampler._stream
        words, stride = stream["words"], stream["stride"]
        per_refill = words.shape[1]
        scratch = self._scratch("block", np.uint64, self._block_refills * per_refill)
        kept = 1 if phase else 0
        refills = -(-(phase + rounds) // self._DRAW_BLOCK)
        if kept:
            scratch[:k, :per_refill] = words[:k]
        gens = [self._gens[row].bit_generator for row in range(k)]
        states = [gen.state for gen in gens] if refills > 1 else None
        chunk = max(1, _DRAW_CHUNK_BYTES // (8 * per_refill)) * per_refill
        for row, gen in enumerate(gens):
            for lo in range(kept * per_refill, refills * per_refill, chunk):
                hi = min(lo + chunk, refills * per_refill)
                scratch[row, lo:hi] = gen.random_raw(hi - lo)
        values = scratch.view(stream["values"].dtype)
        # Each frontier entry's callee in every round of the block, round by round.
        frontier = self._frontier
        _, slots, degrees, bases = self._entry_operands(frontier)
        reads = (bases - 1) // n * values.shape[1] + (frontier.ids - bases) + phase * stride
        draws = values.reshape(-1)[reads + (np.arange(rounds) * stride)[:, None]]
        callees = self._callee_chain(draws, slots, degrees) + bases
        state = self._vertex_flat
        hit = ~state[callees]
        round_of = np.nonzero(hit)[0]
        newly, first = np.unique(callees[hit], return_index=True)
        first = round_of[first]
        # A newly informed vertex with an uninformed neighbor at the block's
        # start may join the frontier: the block ends with that round.
        length, ended = rounds, self._block_limit
        grew = first[self._uninf_flat[newly] > 0]
        if grew.size:
            length, ended = int(grew.min()) + 1, "grew"
            keep = first < length
            newly, first = newly[keep], first[keep]
        rows = (newly - 1) // n
        before = self.counts[:k].copy()
        done = before + np.bincount(rows, minlength=k) == n
        last = np.zeros(k, dtype=np.int64)
        np.maximum.at(last, rows, first + 1)
        if done.all():
            length, ended = int(last.max()), "done"
        # One message per informed caller per round, up to each row's end.
        called = np.where(done, last, length)
        later = np.bincount(rows, np.maximum(called[rows] - first - 1, 0), minlength=k)
        self._messages[:k] += called * before + later.astype(np.int64)
        used = -(-(phase + length) // self._DRAW_BLOCK)
        if used < refills:
            for row in np.flatnonzero(~done).tolist():
                gens[row].state = states[row]
                gens[row].random_raw((used - kept) * per_refill, output=False)
        words[:k] = scratch[:k, (used - 1) * per_refill : used * per_refill]
        if newly.size:
            state[newly] = True
            self._sparse_note_informed(k, newly)
        self._round_count = start + length
        self._note_round(int(np.count_nonzero(first == length - 1)))
        self._block = (length, rows, first, before, np.where(done, start + last, 0))
        if trace_enabled():
            trace_event(
                "kernel.block", protocol=self.name, round=start, rounds=length, rows=k,
                ended=ended,
            )

    def block_outcome(self, k: int, history: bool):
        rounds, rows, first, before, finished = self._block
        counts = None
        if history:
            added = np.bincount(rows * rounds + first, minlength=k * rounds)
            counts = added.reshape(k, rounds).cumsum(axis=1) + before[:, None]
        return finished, counts

    def _exchange(self, k: int) -> Optional[np.ndarray]:
        """Run the enabled call directions of the round's tier for the first
        ``k`` rows.

        Both directions are judged on the state before the round.  Returns
        what :meth:`_settle` needs: the sparse tier's push recipients, else
        ``None``.
        """
        if self.tier == "sparse":
            return self._exchange_sparse(k)
        self._exchange_dense(k)
        return None

    def _exchange_dense(self, k: int) -> None:
        informed = self.vertex_informed[:k]
        callees = self._callee_sampler.sample_per_vertex(k)
        ok = self._callee_sampler.round_ok(k)
        callee_flat = self._callee_flat[:k]
        np.add(callees, self._callee_row_base1[:k], out=callee_flat)
        if self._any_observers:
            # Observers see int64 vertex ids whatever the sampled width.
            self._report_edges(k, callees.astype(np.int64, copy=False), ok)
        pulled = None
        if self._pulls:
            # An uninformed caller learns from a callee informed before the
            # round (for booleans ``a > b`` is exactly ``a & ~b``) — if the
            # round's topology allows the call at all.
            callee_informed = self._callee_informed[:k]
            np.take(self._vertex_flat, callee_flat, out=callee_informed, mode="clip")
            pulled = np.greater(callee_informed, informed, out=self._pulled[:k])
            if ok is not None:
                pulled &= ok
        if self._pushes:
            # An informed caller informs its callee.  The mask is built from
            # ``informed`` before the scatter writes, so callers informed
            # this round do not push yet.
            masked = self._callee_masked[:k]
            np.multiply(callee_flat, informed, out=masked)
            if ok is not None:
                np.multiply(masked, ok, out=masked)
            self._vertex_flat[masked] = True
        if pulled is not None:
            informed |= pulled

    def _exchange_sparse(self, k: int) -> Optional[np.ndarray]:
        """Sparse round: the push direction reads the draws at the frontier,
        the pull direction at the uninformed list.  The two position sets are
        disjoint, so each reads its own slice of the round's per-vertex
        draws, and both read the informed state before either writes.
        Returns the push recipients (flat state indices, possibly repeated),
        or ``None`` when no push reached an uninformed vertex."""
        start = self._raw_round_start(k, self._callee_sampler._stream)
        state = self._vertex_flat
        pushed = None
        if self._pushes and self._frontier.ids.size:
            callees, bases = self._entry_callees(self._frontier, start)
            callees = callees + bases
            reached = state[callees]
            if np.count_nonzero(reached) < reached.size:
                pushed = callees[~reached]
        if self._pulls and self._uninformed.ids.size:
            callees, bases = self._entry_callees(self._uninformed, start)
            state[self._uninformed.ids[state[callees + bases]]] = True
        if pushed is not None:
            state[pushed] = True
        return pushed

    def _settle(self, k: int, pushed) -> None:
        """Counts and sparse index lists after all of the round's writes.

        The hybrid's agents write into the same state between
        :meth:`_exchange` and this call.  With a pull direction the
        uninformed list reveals every newly informed vertex, whoever informed
        it; push alone informs only its own recipients, so a push round that
        reached no uninformed vertex has nothing to settle.
        """
        if self.tier == "dense":
            counts = self.vertex_informed[:k].sum(axis=1)
            if self._switching:
                # Python sums: a few rows' numpy reductions cost more.
                self._note_round(sum(counts.tolist()) - sum(self.counts[:k].tolist()))
            self.counts[:k] = counts
            return
        newly = None
        if self._pulls:
            uninformed = self._uninformed.ids
            now_informed = self._vertex_flat[uninformed]
            if np.count_nonzero(now_informed):
                newly = uninformed[now_informed]
                self._uninformed = _Entries(uninformed[~now_informed])
        elif pushed is not None:
            newly = np.unique(pushed) if pushed.size > 1 else pushed
        self._note_round(0 if newly is None else newly.size)
        if newly is not None:
            self._sparse_note_informed(k, newly)

    def _note_round(self, newly: int) -> None:
        """Record how many vertices the round informed, for the cost model."""
        self._newly_total = newly
        self._hit_share += _HIT_WEIGHT * ((newly > 0) - self._hit_share)

    def complete_rows(self, k):
        return self.counts[:k] >= self.graph.num_vertices

    def informed_vertex_counts(self, k):
        return self.counts[:k]

    def messages_by_trial(self):
        out = np.empty(self.num_trials, dtype=np.int64)
        out[self.trial_ids] = self._messages
        return out
