"""The VISIT-EXCHANGE kernel (Section 3 of the paper).

A set ``A`` of agents performs independent random walks started from the
stationary distribution.  Both vertices and agents store the rumor:

* Round 0: the source vertex becomes informed, and so does every agent that
  starts on the source.
* Each round ``t >= 1``: all agents take one random-walk step in parallel.
  If an agent informed *in a previous round* visits an uninformed vertex, the
  vertex becomes informed in this round.  If an uninformed agent visits a
  vertex that is informed (from a previous round, or in the current round by
  another informed agent), the agent becomes informed.

``T_visitx`` is the first round by which all vertices are informed.
"""

from __future__ import annotations

import numpy as np

from .agent import AgentWalkKernel

__all__ = ["VisitExchangeKernel"]


class VisitExchangeKernel(AgentWalkKernel):
    """Batched VISIT-EXCHANGE: vertices and agents both store the rumor."""

    name = "visit-exchange"

    def __init__(self, *, track_edge_traversals: bool = False, **kwargs) -> None:
        super().__init__(**kwargs)
        self.lazy = bool(self.lazy)
        #: When True and observers are attached, every agent traversal is
        #: reported through ``on_edges_used`` (the fairness analysis' per-edge
        #: utilisation view) instead of only the rumor-delivering arrivals.
        self.track_edge_traversals = bool(track_edge_traversals)

    def initialize(self, graph, source, gens):
        self._setup_common(graph, gens)
        # Visit-exchange has no sparse tier to switch to: every round's draw,
        # scatter and gather is already proportional to the agent population
        # (the "frontier" of an agent protocol *is* its agents), and the only
        # n-wide op left — the informed-vertex count reduction — is a single
        # contiguous boolean sum per trial.  The resolution is recorded as
        # dense so TrialSet consumers see what actually ran.
        self._resolve_frontier(supported=False)
        self._place_agents(graph, source, gens)
        # Slot 0 of the flat buffer is a write sink: scatters index it with
        # ``flat_index * mask`` instead of extracting the masked indices, which
        # is the single most expensive operation it replaces.
        self._vertex_flat = np.zeros(self.num_trials * graph.num_vertices + 1, dtype=bool)
        self.vertex_informed = self._vertex_flat[1:].reshape(
            self.num_trials, graph.num_vertices
        )
        self.vertex_informed[:, source] = True
        self.counts = np.ones(self.num_trials, dtype=np.int64)
        self._register_rows(self.vertex_informed, self.counts)
        self._setup_walk(self.lazy)
        self._all_agents_informed = False

    def step(self, k):
        self._begin_round()
        new_positions = self._walk_rows(k)
        vertex_ok = self._vertex_ok_rows(k, new_positions)
        if self._any_observers:
            self._report_edges(k, new_positions, vertex_ok)
        position_flat = self._position_flat[:k]
        np.add(self._row_base1[:k], new_positions, out=position_flat)

        if self._all_agents_informed and not self._any_observers and vertex_ok is None:
            # Every agent already carries the rumor (a monotone, batch-wide
            # condition without churn, which always masks), so every visited
            # vertex becomes informed and the carrier masking and agent
            # updates are bit-identical no-ops.
            self._vertex_flat[position_flat] = True
        else:
            # Agents informed in a previous round inform the vertices they
            # visit; ``informed`` is read before it is updated, so the scatter
            # sees only the carriers from previous rounds.  Crashed vertices
            # host no interactions: they are neither informed by carriers nor
            # readable by uninformed agents.  Dead agents are masked alike.
            informed = self.agent_informed[:k]
            masked = self._masked[:k]
            np.multiply(position_flat, informed, out=masked)
            if vertex_ok is not None:
                np.multiply(masked, vertex_ok, out=masked)
            self._vertex_flat[masked] = True

            # Uninformed agents on (now) informed vertices learn the rumor.
            on_informed = self._gathered[:k]
            np.take(self._vertex_flat, position_flat, out=on_informed, mode="clip")
            if vertex_ok is not None:
                on_informed &= vertex_ok
            informed |= on_informed
            self._all_agents_informed = bool(self.agent_informed.all())
        self.counts[:k] = self.vertex_informed[:k].sum(axis=1)
        self.positions[:k] = new_positions

    def _report_edges(self, k, new_positions, vertex_ok):
        """Edge reporting, before any state update of the round.

        ``track_edge_traversals`` reports every moved agent's traversal;
        otherwise only the edges that deliver the rumor to a newly informed
        vertex are reported.  Blocked traversals never move an agent, so both
        modes only ever report edges the round's topology masks allow.
        """
        for row in range(k):
            group = self._observer_for_row(row)
            if not group:
                continue
            prev = self.positions[row]
            new = new_positions[row]
            if self.track_edge_traversals:
                moved = prev != new
                group.on_edges_used(prev[moved], new[moved])
                continue
            informed_before = self.agent_informed[row]
            if vertex_ok is not None:
                # A carrier standing on a crashed vertex delivers nothing.
                informed_before = informed_before & vertex_ok[row]
            informing = new[informed_before]
            if informing.size == 0:
                continue
            vertex_informed = self.vertex_informed[row]
            newly = np.unique(informing[~vertex_informed[informing]])
            if newly.size == 0:
                continue
            carriers = informed_before & np.isin(new, newly) & (prev != new)
            group.on_edges_used(prev[carriers], new[carriers])

    def complete_rows(self, k):
        return self.counts[:k] >= self.graph.num_vertices

    def informed_vertex_counts(self, k):
        return self.counts[:k]

    def informed_agent_counts(self, k):
        return self.agent_informed[:k].sum(axis=1)

    def trial_metadata(self, trial):
        return {
            "agent_density": self.agent_density,
            "lazy": self.lazy,
            "one_agent_per_vertex": self.one_agent_per_vertex,
            **self._churn_metadata(trial),
        }
