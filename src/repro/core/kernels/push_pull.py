"""The PUSH-PULL kernel (Section 3 of the paper).

In round zero the source becomes informed.  In each round ``t >= 1`` *every*
vertex (informed or not) samples a uniformly random neighbor and the two
exchange information: if exactly one of the pair was informed before the
round, the other becomes informed in this round.  ``T_ppull`` is the first
round by which all vertices are informed.

The exchange is the union of the PUSH and PULL directions (Karp et al.,
FOCS 2000): the kernel enables both directions of
:class:`~repro.core.kernels.vertex.VertexKernel`.
"""

from __future__ import annotations

import numpy as np

from .vertex import VertexKernel

__all__ = ["PushPullKernel"]


class PushPullKernel(VertexKernel):
    """Batched PUSH-PULL: every vertex calls a random neighbor each round."""

    name = "push-pull"
    _pushes = True
    _pulls = True

    def __init__(self, *, track_all_exchanges: bool = False) -> None:
        #: When True and observers are attached, every sampled
        #: (caller, callee) pair is reported through ``on_edges_used`` — the
        #: "bandwidth" view used by the fairness analysis — instead of only
        #: the informing transmissions.
        self.track_all_exchanges = bool(track_all_exchanges)

    def _report_edges(self, k, callees, ok):
        """Report exchanges before any update (pre-round informed state);
        exchanges blocked by the round's topology masks are not reported."""
        callers = np.arange(self.graph.num_vertices, dtype=np.int64)
        for row in range(k):
            group = self._observer_for_row(row)
            if not group:
                continue
            if self.track_all_exchanges:
                if ok is None:
                    group.on_edges_used(callers, callees[row])
                else:
                    active = ok[row]
                    group.on_edges_used(callers[active], callees[row][active])
                continue
            caller_informed = self.vertex_informed[row]
            callee_informed = caller_informed[callees[row]]
            push_mask = caller_informed & ~callee_informed
            pull_mask = ~caller_informed & callee_informed
            if ok is not None:
                push_mask = push_mask & ok[row]
                pull_mask = pull_mask & ok[row]
            if np.any(push_mask) or np.any(pull_mask):
                group.on_edges_used(callers[push_mask], callees[row][push_mask])
                group.on_edges_used(callers[pull_mask], callees[row][pull_mask])
