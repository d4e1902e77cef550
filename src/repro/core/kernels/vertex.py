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

Sparse-frontier tier
--------------------
From :data:`~repro.core.kernels.base.SPARSE_MIN_VERTICES` vertices on (or when
``frontier="sparse"`` is forced) each round's work is driven by explicit
per-trial index arrays — the *frontier* (informed vertices that still have an
uninformed neighbor, for the push direction) and the *uninformed list* (for
the pull direction) — instead of whole ``(trials, n)`` boolean algebra.

Bit-identity with the dense path is a hard invariant, achieved by splitting
randomness from arithmetic: the raw draw streams are refilled on exactly the
dense schedule (one fixed-width block per trial per ``_DRAW_BLOCK`` rounds,
see :meth:`~repro.core.kernels.base.BatchKernel._raw_round_start`), and the
sparse step merely *reads* the stream at the frontier positions it needs.
Vertices outside the frontier would have drawn values that cannot change
state (an informed vertex with no uninformed neighbor pushes into informed
territory; the dense path ignores informed vertices' pull draws), so skipping
the read skips no information.  The per-position fixed-point arithmetic comes
from :func:`~repro.core.kernels.base.fixed_point_degrees`, like the dense
sampler's, making every sampled callee — and therefore every result —
identical bit for bit.

Dynamics schedules and observers force the dense fallback: activity masks
are materialized per CSR slot and edge reporting scans dense rows, so both
are defined on the dense representation (see
:meth:`~repro.core.kernels.base.BatchKernel._resolve_frontier`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import BatchKernel, NeighborSampler, fixed_point_degrees

__all__ = ["SparseVertexMixin", "VertexKernel"]


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

    def _setup_sparse_vertex(self, graph, source: int) -> None:
        """Allocate the sparse tier's draw stream and index structures.

        The draw stream mirrors the dense ``NeighborSampler``'s exactly —
        same width (one value per vertex), same precision, same refill
        block — so a trial's generator consumption is identical in both
        tiers; only the *reads* differ.
        """
        trials = self.num_trials
        n = graph.num_vertices
        self._offset_bits, self._regular_degree, self._degrees_wide = (
            fixed_point_degrees(graph)
        )
        self._sparse_stream = self._raw_stream(n, self._offset_bits)
        # Vertex ids in the frontier structures; int32 halves the footprint
        # and covers every realistic n.
        id_dtype = np.int64 if n > (1 << 31) - 1 else np.int32
        if self._pushes:
            # Uninformed-neighbor counts drive frontier membership: an
            # informed vertex leaves the frontier for good once its count
            # hits zero.  Initialized to the degrees, then the source's
            # neighbors each lose one uninformed neighbor (the source).
            self._uninf_nbr = np.repeat(
                graph.degrees[None, :].astype(np.int32), trials, axis=0
            )
            source_nbrs = graph.indices[graph.indptr[source] : graph.indptr[source + 1]]
            self._uninf_nbr[:, source_nbrs] -= 1
            self._register_rows(self._uninf_nbr)
            front0 = np.array([source], dtype=id_dtype)
            front0 = front0[self._uninf_nbr[0, front0] > 0]
            self._frontier_rows = [front0.copy() for _ in range(trials)]
            self._register_row_list(self._frontier_rows)
        if self._pulls:
            uninf0 = np.delete(np.arange(n, dtype=id_dtype), source)
            self._uninformed_rows = [uninf0.copy() for _ in range(trials)]
            self._register_row_list(self._uninformed_rows)

    def _sparse_callees(self, row: int, start: int, positions: np.ndarray) -> np.ndarray:
        """Sampled callee of each position, bit-identical to the dense sampler.

        ``start`` is the round's offset from ``_raw_round_start``;
        ``positions`` are vertex ids.  The fixed-point chain reproduces
        :meth:`NeighborSampler.sample_per_vertex` value for value: raw bits
        times the (wide-typed) degree, truncated by the precision shift, into
        the CSR row.
        """
        graph = self.graph
        raw = self._sparse_stream["values"][row, start + positions]
        if self._regular_degree is not None:
            offsets = (raw * self._degrees_wide) >> self._offset_bits
            flat = positions.astype(np.int64) * self._regular_degree + offsets
        else:
            offsets = (raw * self._degrees_wide[positions]) >> self._offset_bits
            flat = graph.indptr[positions] + offsets
        return graph.indices[flat]

    def _sparse_note_informed(self, row: int, newly: np.ndarray) -> None:
        """Maintain uninformed-neighbor counts and the frontier after ``newly``
        (deduplicated vertex ids) became informed in ``row``.

        Each neighbor of a newly informed vertex has one fewer uninformed
        neighbor.  The decrements are aggregated adaptively: a sort-based
        unique when the neighbor batch is small (skewed families whose
        frontier stays tiny — work stays proportional to the frontier), a
        length-n bincount once the batch is a sizable fraction of n
        (expander hot phase, where the counting sort beats the comparison
        sort and the O(n) pass is amortized by the batch itself).
        """
        graph = self.graph
        ids64 = newly.astype(np.int64)
        if self._regular_degree is not None:
            d = self._regular_degree
            neighbors = graph.indices[
                (ids64 * d)[:, None] + np.arange(d, dtype=np.int64)
            ].ravel()
        else:
            neighbors = graph._frontier_neighbors(ids64)
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

    A round is :meth:`_count_messages`, then :meth:`_exchange` (the enabled
    directions), then :meth:`_settle` (counts and sparse index lists).
    Subclasses set the direction flags and implement the message accounting
    and the observer edge reporting.
    """

    def initialize(self, graph, source, gens):
        self._setup_common(graph, gens)
        self._setup_calls(graph, int(source), self._resolve_frontier() == "sparse")

    def _setup_calls(self, graph, source: int, sparse: bool) -> None:
        """Informed state, message counters and the callee stream of a tier."""
        self._setup_vertex_state(source)
        self._messages = np.zeros(self.num_trials, dtype=np.int64)
        self._register_rows(self._messages)
        if sparse:
            self._setup_sparse_vertex(graph, source)
            return
        # Scratch reused every round to avoid allocator churn on the hot path;
        # ``_callee_masked`` aliases the sampler's offset buffer, which is dead
        # by the time the scatter mask is built (smaller resident set, fewer
        # cache evictions).
        shape = (self.num_trials, graph.num_vertices)
        self._callee_sampler = NeighborSampler(self, graph.num_vertices)
        self._callee_flat = np.empty(shape, dtype=np.int64)
        self._callee_masked = self._callee_sampler.offsets
        self._callee_row_base1 = self._materialized_row_base(graph.num_vertices)
        if self._pulls:
            self._callee_informed = np.empty(shape, dtype=bool)
            self._pulled = np.empty(shape, dtype=bool)

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

    def _exchange(self, k: int) -> Optional[List[Optional[np.ndarray]]]:
        """Run the enabled call directions for the first ``k`` rows.

        Both directions are judged on the state before the round.  Returns
        what :meth:`_settle` needs: the sparse tier's per-row push recipients,
        ``None`` in the dense tier.
        """
        if self.frontier_resolved == "sparse":
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
            self._report_edges(k, callees, ok)
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
        start = self._raw_round_start(k, self._sparse_stream)
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
        if self.frontier_resolved != "sparse":
            self.counts[:k] = self.vertex_informed[:k].sum(axis=1)
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
                continue
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
