"""The PULL kernel.

PULL is the mirror image of PUSH: in every round each *uninformed* vertex
samples a uniformly random neighbor and, if that neighbor was informed before
the round, becomes informed.  The paper studies PUSH and PUSH-PULL; PULL is
included as an additional baseline because the classic analysis (Karp et al.
2000) treats PUSH-PULL as the combination of the two directions, and having
PULL available makes the ablation benchmarks self-contained.

The kernel draws one neighbor per vertex regardless of its informed state (a
fixed draw shape keeps every trial's stream a pure function of its round
count) and simply ignores the draws of already informed vertices; message
accounting counts only the uninformed pullers.
"""

from __future__ import annotations

import numpy as np

from .vertex import VertexKernel

__all__ = ["PullKernel"]


class PullKernel(VertexKernel):
    """Batched PULL: uninformed vertices pull from uniformly random neighbors."""

    name = "pull"
    _sparse_needs_uninformed = True

    def _step_sparse(self, k):
        """Only the uninformed list draws (informed vertices' dense draws are
        ignored by the dense mask anyway); a puller whose sampled callee's
        packed bit is set learns and leaves the list."""
        start = self._raw_round_start(k, self._sparse_stream)
        for row in range(k):
            uninformed = self._uninformed_rows[row]
            # One message per uninformed puller (dense: n - counts).
            self._messages[row] += uninformed.size
            if uninformed.size == 0:
                continue
            callees = self._sparse_callees(row, start, uninformed)
            got = self._packed.test_row(row, callees)
            if got.any():
                newly = uninformed[got]
                self._packed.set_row(row, newly)
                self.counts[row] += newly.size
                self._uninformed_rows[row] = uninformed[~got]

    def step(self, k):
        self._begin_round()
        if self.frontier_resolved == "sparse":
            self._step_sparse(k)
            return
        informed = self.informed[:k]
        callees, callee_flat = self._sample_callees(k)
        ok = self._sampler.round_ok(k)
        callee_informed = self._gathered[:k]
        np.take(self._informed_flat, callee_flat, out=callee_informed, mode="clip")
        # One message per uninformed puller.
        self._messages[:k] += self.graph.num_vertices - self.counts[:k]
        # For booleans ``a > b`` is exactly ``a & ~b``: an uninformed puller
        # whose callee was informed before the round learns the rumor — if
        # the round's topology allows the call at all.
        pull_mask = np.greater(callee_informed, informed, out=self._pull_scratch[:k])
        if ok is not None:
            pull_mask &= ok
        if self._any_observers:
            self._report_edges(k, callees, pull_mask)
        informed |= pull_mask
        self.counts[:k] = informed.sum(axis=1)

    def _report_edges(self, k, callees, pull_mask):
        """Report every successful pull as a (puller, source-neighbor) edge."""
        for row in range(k):
            group = self._observer_for_row(row)
            if not group:
                continue
            pullers = np.flatnonzero(pull_mask[row])
            if pullers.size:
                group.on_edges_used(pullers, callees[row, pullers])
