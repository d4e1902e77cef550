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
    _pulls = True

    def _report_edges(self, k, callees, ok):
        """Report every successful pull as a (puller, callee) edge."""
        for row in range(k):
            group = self._observer_for_row(row)
            if not group:
                continue
            informed_row = self.vertex_informed[row]
            pulled = informed_row[callees[row]] & ~informed_row
            if ok is not None:
                pulled &= ok[row]
            pullers = np.flatnonzero(pulled)
            if pullers.size:
                group.on_edges_used(pullers, callees[row, pullers])
