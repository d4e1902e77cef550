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
"""

from __future__ import annotations

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

    def _entry_callees(self, entries: _Entries, start: int):
        """The entries' sampled callees (in the sampled vertex-id width) and
        the flat state index of each entry's row, to add to them.

        ``start`` is the round's offset from ``_raw_round_start``.  The
        fixed-point chain reproduces :meth:`NeighborSampler.sample_per_vertex`
        value for value: raw bits times the (wide-typed) degree, truncated by
        the precision shift, into the CSR row.  Its per-entry operands (draw
        index, CSR row start, degree, row base) are computed once per list.
        """
        sampler = self._callee_sampler
        if entries.operands is None:
            rows, positions = np.divmod(entries.ids - 1, self.graph.num_vertices)
            d = sampler._regular_degree
            entries.operands = (
                rows * self._values_width + positions,
                positions * d if d is not None else self.graph.indptr[positions],
                sampler._degrees_wide if d is not None else sampler._degrees_wide[positions],
                entries.ids - positions,
            )
        reads, slots, degrees, bases = entries.operands
        offsets = (self._callee_values[start:][reads] * degrees) >> sampler.offset_bits
        return self._adjacency[slots + offsets], bases

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
        # The sparse tier never pays below this size: a row's fixed cost and
        # draw refill alone exceed the entry share of a dense row.
        self._switching = (
            mode == "auto" and _SPARSE_ROW_COST + (n >> _DRAW_SHIFT) < _ENTER_SPARSE * n
        )
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
        """The cheaper tier for the next round of the first ``k`` rows.

        Cost model, in units of one vertex of a dense round: beyond a fixed
        floor, which a sparse round matches, a dense round costs ``n`` per
        row.  A sparse round costs ``_SPARSE_ROUND_COST`` for a settle with
        work, weighted by the running share of rounds that informed anyone
        (a round that informs nobody settles nothing); per row
        ``_SPARSE_ROW_COST`` plus the draw refill both tiers pay,
        ``n >> _DRAW_SHIFT``; ``_FRONTIER_COST`` per frontier vertex (push
        direction), ``_UNINFORMED_COST`` per uninformed vertex (pull
        direction) and ``_NEIGHBOR_COST`` per count decrement, estimated as
        the mean degree times the last round's newly informed (push
        direction).  The fixed terms come from per-round timings of push on
        stars and double stars with ``n`` = 256 to 1024 and 1 to 20 trials,
        the entry terms from random 12-regular and power-law graphs with
        ``n = 2^16`` (2-vCPU x86 VM).  The sparse tier knows its list sizes;
        the dense tier bounds the frontier in O(k) by the informed count and
        the mean degree times the uninformed count (every frontier vertex is
        an informed neighbor of an uninformed one), and skips even that when
        the fixed terms alone rule sparse out.  Hysteresis keeps the tier
        from oscillating: the kernel enters the sparse tier below
        ``_ENTER_SPARSE`` of the dense cost and leaves it above
        ``_LEAVE_SPARSE``.
        """
        n = self.graph.num_vertices
        limit = (_LEAVE_SPARSE if self.tier == "sparse" else _ENTER_SPARSE) * k * n
        work = _SPARSE_ROUND_COST * self._hit_share + k * (_SPARSE_ROW_COST + (n >> _DRAW_SHIFT))
        newly = self._newly_total
        if self.tier == "sparse":
            frontier = self._frontier.ids.size if self._pushes else 0
            uninformed = self._uninformed.ids.size if self._pulls else 0
        elif work >= limit:
            uninformed = frontier = newly = 0  # the fixed part alone rules sparse out
        else:
            informed = sum(self.counts[:k].tolist())
            uninformed = k * n - informed
            frontier = min(informed, self._mean_degree * uninformed)
            newly = min(newly, uninformed)
        if self._pulls:
            work += _UNINFORMED_COST * uninformed
        if self._pushes:
            work += _FRONTIER_COST * frontier + _NEIGHBOR_COST * self._mean_degree * newly
        self._sparse_work = work
        return "sparse" if work < limit else "dense"

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

    def _exchange(self, k: int) -> Optional[np.ndarray]:
        """Choose the round's tier, then run the enabled call directions for
        the first ``k`` rows.

        Both directions are judged on the state before the round.  Returns
        what :meth:`_settle` needs: the sparse tier's push recipients, else
        ``None``.
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
