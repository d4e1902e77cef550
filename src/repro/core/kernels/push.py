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
    _pushes = True

    def _report_edges(self, k, callees, ok):
        """Report each newly informed vertex with the first sender (in vertex
        order) that hit it.  Runs before the scatter so ``informed`` is still
        the pre-round state; only transmissions the round's topology masks
        allow are considered."""
        for row in range(k):
            group = self._observer_for_row(row)
            if not group:
                continue
            informed_row = self.vertex_informed[row]
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
