"""The PUSH kernel (Section 3 of the paper).

In round zero the source becomes informed.  In each round ``t >= 1`` every
vertex that was informed *in a previous round* samples a uniformly random
neighbor and sends it the rumor; an uninformed recipient becomes informed in
this round (and therefore starts pushing only from the next round).
``T_push`` is the first round by which all vertices are informed.

Under a dynamic topology a push whose sampled edge is down (or whose caller
or callee is crashed) is lost; the message still counts as sent.
"""

from __future__ import annotations

import numpy as np

from .vertex import VertexKernel

__all__ = ["PushKernel"]


class PushKernel(VertexKernel):
    """Batched PUSH: informed vertices push to uniformly random neighbors."""

    name = "push"
    _sparse_needs_frontier = True

    def _step_sparse(self, k):
        """Frontier rounds: only informed vertices that still have an
        uninformed neighbor draw; everything else's dense draw could not have
        changed state, so skipping it preserves bit-identity (the raw stream
        itself advances on the dense schedule via ``_raw_round_start``)."""
        start = self._raw_round_start(k, self._sparse_stream)
        counts = self.counts
        for row in range(k):
            # Message accounting reads the pre-round informed count, exactly
            # like the dense `_messages += counts` before the scatter.
            self._messages[row] += counts[row]
            frontier = self._frontier_rows[row]
            if frontier.size == 0:
                continue
            callees = self._sparse_callees(row, start, frontier)
            fresh = callees[~self._packed.test_row(row, callees)]
            if fresh.size == 0:
                continue
            newly = np.unique(fresh)
            self._packed.set_row(row, newly)
            counts[row] += newly.size
            self._sparse_note_informed(row, newly)

    def step(self, k):
        self._begin_round()
        if self.frontier_resolved == "sparse":
            self._step_sparse(k)
            return
        informed = self.informed[:k]
        callees, callee_flat = self._sample_callees(k)
        ok = self._sampler.round_ok(k)
        if self._any_observers:
            self._report_edges(k, callees, ok)
        masked = self._masked[:k]
        np.multiply(callee_flat, informed, out=masked)
        if ok is not None:
            np.multiply(masked, ok, out=masked)
        self._messages[:k] += self.counts[:k]
        self._informed_flat[masked] = True
        self.counts[:k] = informed.sum(axis=1)

    def _report_edges(self, k, callees, ok):
        """Report each newly informed vertex with the first sender (in vertex
        order) that hit it.  Runs before the scatter so ``informed`` is still
        the pre-round state; only transmissions the round's topology masks
        allow are considered."""
        for row in range(k):
            group = self._observer_for_row(row)
            if not group:
                continue
            informed_row = self.informed[row]
            if ok is not None:
                senders = np.flatnonzero(informed_row & ok[row])
            else:
                senders = np.flatnonzero(informed_row)
            targets = callees[row, senders]
            hits = ~informed_row[targets]
            if not np.any(hits):
                continue
            hit_targets = targets[hits]
            _, first = np.unique(hit_targets, return_index=True)
            group.on_edges_used(senders[hits][first], hit_targets[first])
