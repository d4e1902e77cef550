"""The vertex half of the call protocols: the push and the pull direction.

PUSH, PULL and PUSH-PULL keep one boolean informed flag per vertex per trial
(:meth:`~repro.core.kernels.base.BatchKernel._setup_vertex_state`, the same
array in both tiers) and sample one uniformly random neighbor — the *callee* —
per vertex per round.  Each round runs some of two call directions, both
judged on the state before the round: in the *push* direction an informed
caller informs its callee, in the *pull* direction an uninformed caller learns
from an informed callee.  PUSH-PULL is the union of the two (Karp et al.,
FOCS 2000).  :class:`VertexKernel` states each direction once per tier; a
protocol selects its directions with the ``_pushes``/``_pulls`` flags and adds
only its message accounting and its observer edge reporting.  The hybrid
kernel runs the same vertex half under its agents.

Two tiers, chosen round by round
--------------------------------
The *dense* tier runs each direction as whole ``(trials, n)`` boolean
algebra.  The *sparse* tier drives a row from explicit index arrays — the
*frontier* (informed vertices that still have an uninformed neighbor, for the
push direction) and the *uninformed list* (for the pull direction) — so its
work follows the live frontier instead of ``n``.  A rumor's run has thin
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
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...telemetry import trace_enabled, trace_event
from .base import BatchKernel, NeighborSampler

__all__ = ["SparseVertexMixin", "VertexKernel"]

# Cost model of a sparse row, in units of one vertex of a dense round (a
# dense round costs ``n`` per row); see VertexKernel._choose_tier.
#: Fixed cost of a sparse row: a few dozen small numpy calls.
_SPARSE_ROW_COST = 4096
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


class SparseVertexMixin:
    """Index structures and callee reads of the sparse tier.

    Provides the dense-stream-compatible callee reads and the two index
    structures: per-trial frontiers (with uninformed-neighbor counts) for the
    push direction and per-trial uninformed lists for the pull direction.
    """

    #: Which call directions run.  The push direction walks the informed
    #: frontier, the pull direction the uninformed list.  Subclasses override.
    _pushes = False
    _pulls = False

    def _setup_sparse_vertex(self, graph) -> None:
        """Allocate the sparse tier's index structures; :meth:`_enter_sparse`
        fills them."""
        trials = self.num_trials
        n = graph.num_vertices
        # Vertex ids in the index lists; int32 halves the footprint and
        # covers every realistic n.
        self._id_dtype = np.int64 if n > (1 << 31) - 1 else np.int32
        if self._pushes:
            # Uninformed-neighbor counts drive frontier membership: an
            # informed vertex leaves the frontier for good once its count
            # hits zero.
            self._uninf_nbr = np.empty((trials, n), dtype=np.int32)
            self._register_rows(self._uninf_nbr)
            self._frontier_rows: List[np.ndarray] = [None] * trials
            self._register_row_list(self._frontier_rows)
        if self._pulls:
            self._uninformed_rows: List[np.ndarray] = [None] * trials
            self._register_row_list(self._uninformed_rows)

    def _enter_sparse(self, k: int) -> None:
        """Rebuild the first ``k`` rows' index structures from the informed array.

        Per row this costs O(n) plus the volume of the smaller of the informed
        and the uninformed set: the uninformed-neighbor counts are a bincount
        over the neighbors of the uninformed, or the degrees minus one over
        the neighbors of the informed; the frontier is the informed vertices
        whose count is above zero.
        """
        n = self.graph.num_vertices
        for row in range(k):
            informed = self.vertex_informed[row]
            few_informed = 2 * int(self.counts[row]) <= n
            if self._pulls or not few_informed:
                uninformed = np.flatnonzero(~informed)
            if self._pulls:
                self._uninformed_rows[row] = uninformed.astype(self._id_dtype)
            if not self._pushes:
                continue
            counts = self._uninf_nbr[row]
            if few_informed:
                ids = np.flatnonzero(informed)
                informed_nbrs = np.bincount(self._neighbors(ids), minlength=n)
                np.subtract(self.graph.degrees, informed_nbrs, out=counts, casting="unsafe")
                frontier = ids[counts[ids] > 0]
            else:
                counts[:] = np.bincount(self._neighbors(uninformed), minlength=n)
                frontier = np.flatnonzero(informed & (counts > 0))
            self._frontier_rows[row] = frontier.astype(self._id_dtype)

    def _neighbors(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of the vertex ids ``ids``, in the
        sampled vertex-id width."""
        ids64 = ids.astype(np.int64, copy=False)
        d = self._callee_sampler._regular_degree
        if d is not None:
            slots = ((ids64 * d)[:, None] + np.arange(d, dtype=np.int64)).ravel()
        else:
            slots = self.graph._frontier_slots(ids64)
        return self._adjacency[slots]

    def _sparse_callees(self, row: int, start: int, positions: np.ndarray) -> np.ndarray:
        """Sampled callee of each position, bit-identical to the dense sampler.

        ``start`` is the round's offset from ``_raw_round_start``;
        ``positions`` are vertex ids.  The fixed-point chain reproduces
        :meth:`NeighborSampler.sample_per_vertex` value for value: raw bits
        times the (wide-typed) degree, truncated by the precision shift, into
        the CSR row.  The callees come in the sampled vertex-id width.
        """
        graph = self.graph
        sampler = self._callee_sampler
        raw = sampler._stream["values"][row, start + positions]
        if sampler._regular_degree is not None:
            offsets = (raw * sampler._degrees_wide) >> sampler.offset_bits
            flat = positions.astype(np.int64) * sampler._regular_degree + offsets
        else:
            offsets = (raw * sampler._degrees_wide[positions]) >> sampler.offset_bits
            flat = graph.indptr[positions] + offsets
        return self._adjacency[flat]

    def _sparse_note_informed(self, row: int, newly: np.ndarray) -> None:
        """Maintain uninformed-neighbor counts and the frontier after ``newly``
        (deduplicated vertex ids) became informed in ``row``.

        Each neighbor of a newly informed vertex has one fewer uninformed
        neighbor.  The decrements are aggregated adaptively: a sort-based
        unique when the neighbor batch is small (skewed families whose
        frontier stays tiny — work stays proportional to the frontier), a
        length-n bincount once the batch is a sizable fraction of n.
        """
        neighbors = self._neighbors(newly)
        if neighbors.size:
            counts_row = self._uninf_nbr[row]
            if neighbors.size >= counts_row.size >> 3:
                counts_row -= np.bincount(
                    neighbors, minlength=counts_row.size
                ).astype(np.int32)
            else:
                ids, dec = np.unique(neighbors, return_counts=True)
                counts_row[ids] -= dec.astype(np.int32)
        front = self._frontier_rows[row]
        candidates = np.concatenate([front, newly.astype(front.dtype)])
        self._frontier_rows[row] = candidates[self._uninf_nbr[row, candidates] > 0]


class VertexKernel(SparseVertexMixin, BatchKernel):
    """Base kernel for the protocols whose vertices call their neighbors.

    A round is :meth:`_count_messages`, then :meth:`_exchange` (the tier
    choice and the enabled directions), then :meth:`_settle` (counts and
    sparse index lists).  Subclasses set the direction flags and implement the
    message accounting and the observer edge reporting.
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
        #: Vertices each row informed in its last round (the cost model's
        #: estimate of the next round's count decrements).
        self._newly = np.zeros(self.num_trials, dtype=np.int64)
        self._register_rows(self._messages, self._newly)
        # Both tiers read this sampler's stream.  Scratch reused every round
        # to avoid allocator churn on the dense hot path; ``_callee_masked``
        # aliases the sampler's offset buffer, which is dead by the time the
        # scatter mask is built (smaller resident set, fewer cache evictions).
        shape = (self.num_trials, n)
        self._callee_sampler = NeighborSampler(self, n)
        self._callee_flat = np.empty(shape, dtype=np.int64)
        self._callee_masked = self._callee_sampler.offsets
        self._callee_row_base1 = self._flat_row_base(n)
        if self._pulls:
            self._callee_informed = np.empty(shape, dtype=bool)
            self._pulled = np.empty(shape, dtype=bool)
        self.tier = "dense"
        self._sparse_work = 0
        # The sparse tier never pays below this size: its fixed row cost
        # alone exceeds the entry share of a dense row.
        self._switching = mode == "auto" and _SPARSE_ROW_COST < _ENTER_SPARSE * n
        self._mean_degree = 2.0 * graph.num_edges / n
        if mode == "sparse" or self._switching:
            self._setup_sparse_vertex(graph)
            if mode == "sparse" or self._choose_tier(self.num_trials) == "sparse":
                self._switch_tier(self.num_trials, "sparse")

    def step(self, k):
        self._begin_round()
        self._count_messages(k)
        self._settle(k, self._exchange(k))

    def _count_messages(self, k: int) -> None:
        """Add the round's messages of the first ``k`` rows (pre-round state)."""
        raise NotImplementedError

    def _report_edges(self, k: int, callees: np.ndarray, ok) -> None:
        """Report the round's edges to the observers, before any update.

        ``callees`` is the ``(k, n)`` callee sample and ``ok`` the round's
        per-call activity (``None`` when every call may happen); dense only.
        """
        raise NotImplementedError

    def _choose_tier(self, k: int) -> str:
        """The cheaper tier for the next round of the first ``k`` rows.

        Cost model, in units of one vertex of a dense round: a dense round
        costs ``n`` per row.  A sparse row costs a fixed
        ``_SPARSE_ROW_COST``, plus ``_FRONTIER_COST`` per frontier vertex
        (push direction), ``_UNINFORMED_COST`` per uninformed vertex (pull
        direction) and ``_NEIGHBOR_COST`` per count decrement, estimated as
        the mean degree times the row's last-round newly informed, capped by
        its uninformed count (push direction).  The constants come from
        per-round timings of both tiers on random 12-regular and power-law
        graphs with ``n = 2^16`` (2-vCPU x86 VM).  The sparse tier knows its
        frontier sizes; the dense tier bounds them in O(k) by the informed
        count and the mean degree times the uninformed count (every frontier
        vertex is an informed neighbor of an uninformed one).  Hysteresis
        keeps the tier from oscillating: the kernel enters the sparse tier
        below ``_ENTER_SPARSE`` of the dense cost and leaves it above
        ``_LEAVE_SPARSE``.
        """
        n = self.graph.num_vertices
        informed = self.counts[:k]
        uninformed = n - informed
        work = k * _SPARSE_ROW_COST
        if self._pulls:
            work += _UNINFORMED_COST * int(uninformed.sum())
        if self._pushes:
            if self.tier == "sparse":
                frontier = sum(front.size for front in self._frontier_rows[:k])
            else:
                frontier = np.minimum(informed, self._mean_degree * uninformed).sum()
            newly = np.minimum(self._newly[:k], uninformed).sum()
            decrements = self._mean_degree * int(newly)
            work += _FRONTIER_COST * frontier + _NEIGHBOR_COST * decrements
        self._sparse_work = work
        share = _LEAVE_SPARSE if self.tier == "sparse" else _ENTER_SPARSE
        return "sparse" if work < share * k * n else "dense"

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

    def _exchange(self, k: int) -> Optional[List[Optional[np.ndarray]]]:
        """Choose the round's tier, then run the enabled call directions for
        the first ``k`` rows.

        Both directions are judged on the state before the round.  Returns
        what :meth:`_settle` needs: the sparse tier's per-row push recipients,
        ``None`` in the dense tier.
        """
        if self._switching:
            tier = self._choose_tier(k)
            if tier != self.tier:
                self._switch_tier(k, tier)
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

    def _exchange_sparse(self, k: int) -> List[Optional[np.ndarray]]:
        """Sparse round: the push direction reads the draws at the frontier,
        the pull direction at the uninformed list.  The two position sets are
        disjoint, so each reads its own slice of the round's per-vertex
        draws, and both read the informed row before either writes."""
        start = self._raw_round_start(k, self._callee_sampler._stream)
        pushed_rows: List[Optional[np.ndarray]] = []
        for row in range(k):
            informed_row = self.vertex_informed[row]
            pushed = None
            if self._pushes:
                frontier = self._frontier_rows[row]
                if frontier.size:
                    callees = self._sparse_callees(row, start, frontier)
                    pushed = callees[~informed_row[callees]]
            if self._pulls:
                uninformed = self._uninformed_rows[row]
                if uninformed.size:
                    callees = self._sparse_callees(row, start, uninformed)
                    informed_row[uninformed[informed_row[callees]]] = True
            if pushed is not None:
                informed_row[pushed] = True
            pushed_rows.append(pushed)
        return pushed_rows

    def _settle(self, k: int, pushed_rows) -> None:
        """Counts and sparse index lists after all of the round's writes.

        The hybrid's agents write into the same state between
        :meth:`_exchange` and this call.  With a pull direction the
        uninformed list reveals every newly informed vertex, whoever informed
        it; push alone informs only its own recipients.
        """
        if self.tier == "dense":
            counts = self.vertex_informed[:k].sum(axis=1)
            if self._switching:
                np.subtract(counts, self.counts[:k], out=self._newly[:k])
            self.counts[:k] = counts
            return
        for row in range(k):
            if self._pulls:
                uninformed = self._uninformed_rows[row]
                now_informed = self.vertex_informed[row][uninformed]
                newly = uninformed[now_informed]
                if newly.size:
                    self._uninformed_rows[row] = uninformed[~now_informed]
            elif pushed_rows[row] is not None:
                newly = np.unique(pushed_rows[row])
            else:
                self._newly[row] = 0
                continue
            self._newly[row] = newly.size
            if newly.size:
                self.counts[row] += newly.size
                if self._pushes:
                    self._sparse_note_informed(row, newly)

    def complete_rows(self, k):
        return self.counts[:k] >= self.graph.num_vertices

    def informed_vertex_counts(self, k):
        return self.counts[:k]

    def messages_by_trial(self):
        out = np.empty(self.num_trials, dtype=np.int64)
        out[self.trial_ids] = self._messages
        return out
