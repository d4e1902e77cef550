"""The MEET-EXCHANGE kernel (Section 3 of the paper).

A set ``A`` of agents performs independent random walks from the stationary
distribution; only *agents* store the rumor:

* Round 0: every agent on the source vertex becomes informed.  If no agent is
  on the source, the first agent(s) to visit the source in a later round
  become informed; after that first visit the source stops informing agents.
* Each round ``t >= 1``: all agents step; whenever two agents meet on a vertex
  and exactly one of them was informed in a *previous* round, the other
  becomes informed (information does not chain within a round).

``T_meetx`` is the first round by which all agents are informed.  On bipartite
graphs the walks are made lazy (stay put with probability 1/2), following the
paper, so that the expected broadcast time is finite.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agent import AgentWalkKernel

__all__ = ["MeetExchangeKernel"]


class MeetExchangeKernel(AgentWalkKernel):
    """Batched MEET-EXCHANGE: only agents store the rumor."""

    name = "meet-exchange"

    def __init__(self, *, lazy: Optional[bool] = None, **kwargs) -> None:
        # ``lazy=None`` auto-enables lazy walks on bipartite graphs, following
        # the convention of Section 3 of the paper.
        super().__init__(lazy=lazy, **kwargs)

    def initialize(self, graph, source, gens):
        self._setup_common(graph, gens)
        self.effective_lazy = (
            bool(self.lazy) if self.lazy is not None else graph.is_bipartite()
        )
        self.source = int(source)
        self._place_agents(graph, source, gens)
        # If no agent starts on the source it keeps the rumor for its first visitor.
        self.source_still_informs = ~self.agent_informed.any(axis=1)
        self._register_rows(self.source_still_informs)
        self._setup_walk(self.effective_lazy)
        # Scratch meeting map with a slot-0 write sink (see _setup_vertex_state),
        # cleared in full every round.  Like visit-exchange, the kernel has no
        # sparse tier: its work is agent-proportional already.
        self._meeting_flat = np.empty(self.num_trials * graph.num_vertices + 1, dtype=bool)
        self._informed_before = self._scratch("informed_before", bool, self._num_agents)

    def step(self, k):
        self._begin_round()
        new_positions = self._walk_rows(k)
        vertex_ok = self._vertex_ok_rows(k, new_positions)
        informed_before = self._informed_before[:k]
        np.copyto(informed_before, self.agent_informed[:k])

        # The source hands the rumor to its first visitor(s), then goes silent.
        # Agents informed directly by the source may not spread further this
        # round (they were not informed in a previous round), hence the copy of
        # ``informed_before`` above.  A crashed source informs nobody, and a
        # dead agent is not a visitor (``vertex_ok`` masks both).
        still_informs = self.source_still_informs[:k]
        if np.any(still_informs):
            at_source = new_positions == np.int64(self.source)
            if vertex_ok is not None:
                at_source &= vertex_ok
            visited = at_source.any(axis=1) & still_informs
            if np.any(visited):
                self.agent_informed[:k] |= at_source & visited[:, None]
                still_informs &= ~visited

        # Meetings: every vertex holding an agent informed in a previous round
        # informs all agents located there.  Crashed vertices host no
        # meetings: agents stuck on one neither give nor receive the rumor.
        # Dead agents are masked alike.
        informed_here = self._meeting_flat[: k * self.graph.num_vertices + 1]
        informed_here[...] = False
        local_flat = self._position_flat[:k]
        masked = self._masked[:k]
        np.add(self._row_base1[:k], new_positions, out=local_flat)
        np.multiply(local_flat, informed_before, out=masked)
        if vertex_ok is not None:
            np.multiply(masked, vertex_ok, out=masked)
        informed_here[masked] = True
        met = self._gathered[:k]
        np.take(informed_here, local_flat, out=met, mode="clip")
        if vertex_ok is not None:
            met &= vertex_ok
        self.agent_informed[:k] |= met
        self.positions[:k] = new_positions

    def complete_rows(self, k):
        if self._alive is not None:
            # Under churn the target moves (newborns start uninformed) and an
            # extinct population completes nothing.
            return self._alive_agents_informed(k)
        return self.agent_informed[:k].all(axis=1)

    def informed_vertex_counts(self, k):
        # Vertices do not store the rumor in meet-exchange; by convention the
        # source is reported as the single "informed" vertex.
        return np.ones(k, dtype=np.int64)

    def trial_metadata(self, trial):
        return {
            "agent_density": self.agent_density,
            "lazy": self.effective_lazy,
            "one_agent_per_vertex": self.one_agent_per_vertex,
            "source_still_informs": bool(self.source_still_informs[self._row_of(trial)]),
            **self._churn_metadata(trial),
        }
