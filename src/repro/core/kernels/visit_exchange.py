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

``T_visitx`` is the first round by which all vertices are informed.  The
round's rule is :class:`VisitRule`, which the hybrid kernel runs as well.

Per-trial injection (``injections=``, one ``(round, source)`` pair per trial)
moves a trial's start: before its injection round the trial holds no
informed vertex or agent, and in that round its source is informed after the
walk step, so the agents standing on it learn the rumor through the visit
rule.  The walk never reads the source, so trials sharing a seed share their
walk: the multi-rumor extension (:mod:`repro.extensions.multi_rumor`) runs
``r`` rumors of one trial as ``r`` such trials of one batch.
"""

from __future__ import annotations

import numpy as np

from ...graphs.graph import GraphError
from .agent import AgentWalkKernel

__all__ = ["VisitExchangeKernel", "VisitRule"]


class VisitRule:
    """The visit-exchange rule between the agents and the informed vertices.

    Shared by :class:`VisitExchangeKernel` and the hybrid kernel: the vertex
    state comes from ``_setup_vertex_state``, the agents and their scratch
    from :class:`~repro.core.kernels.agent.AgentWalkKernel`.  A kernel using
    it sets ``_all_agents_informed = False`` when it initializes.
    """

    def _visit(self, k, new_positions, vertex_ok):
        """Apply the rule at the agents' new positions and commit the move.

        ``vertex_ok`` is the ``(k, agents)`` mask of agents that may interact
        this round, or ``None`` when all may.
        """
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
        self.positions[:k] = new_positions


class VisitExchangeKernel(VisitRule, AgentWalkKernel):
    """Batched VISIT-EXCHANGE: vertices and agents both store the rumor."""

    name = "visit-exchange"

    def __init__(
        self, *, track_edge_traversals: bool = False, injections=None, **kwargs
    ) -> None:
        super().__init__(**kwargs)
        self.lazy = bool(self.lazy)
        #: When True and observers are attached, every agent traversal is
        #: reported through ``on_edges_used`` (the fairness analysis' per-edge
        #: utilisation view) instead of only the rumor-delivering arrivals.
        self.track_edge_traversals = bool(track_edge_traversals)
        #: One ``(round, source)`` pair per trial, overriding the batch's
        #: source (see the module docstring), or None.
        self.injections = injections

    def initialize(self, graph, source, gens):
        self._setup_common(graph, gens)
        # Visit-exchange has no sparse tier to switch to: every round's draw,
        # scatter and gather is already proportional to the agent population
        # (the "frontier" of an agent protocol *is* its agents), and the only
        # n-wide op left — the informed-vertex count reduction — is a single
        # contiguous boolean sum per trial.  ``frontier_resolved`` stays
        # "dense", so TrialSet consumers see what actually ran.
        self._place_agents(graph, source, gens)
        self._setup_vertex_state(source)
        self._setup_walk(self.lazy)
        self._all_agents_informed = False
        self._inject_round = None
        if self.injections is not None:
            self._setup_injections()

    def _setup_injections(self):
        """Per-row injection state; rows injected after round 0 start blank."""
        pairs = np.asarray(self.injections, dtype=np.int64)
        if pairs.shape != (self.num_trials, 2):
            raise ValueError("need exactly one (round, source) injection per trial seed")
        rounds, sources = pairs[:, 0].copy(), pairs[:, 1].copy()
        if np.any(rounds < 0):
            raise ValueError("injection rounds must be non-negative")
        if np.any((sources < 0) | (sources >= self.graph.num_vertices)):
            raise GraphError("injection source out of range")
        started = rounds == 0
        self.vertex_informed[:] = False
        self.vertex_informed[started, sources[started]] = True
        np.equal(self.positions, sources[:, None], out=self.agent_informed)
        self.agent_informed &= started[:, None]
        if self._alive is not None:
            self.agent_informed &= self._alive
        self.counts[:] = started
        self._inject_round, self._inject_source = rounds, sources
        self._register_rows(rounds, sources)

    def step(self, k):
        self._begin_round()
        new_positions = self._walk_rows(k)
        if self._inject_round is not None:
            # The rows injected this round inform their source before the
            # visit rule runs, which hands it to the agents standing there.
            rows = np.flatnonzero(self._inject_round[:k] == self._round_count)
            self.vertex_informed[rows, self._inject_source[rows]] = True
        vertex_ok = self._vertex_ok_rows(k, new_positions)
        if self._any_observers:
            # Observers see int64 vertex ids whatever the sampled width.
            self._report_edges(k, new_positions.astype(np.int64, copy=False), vertex_ok)
        self._visit(k, new_positions, vertex_ok)
        self.counts[:k] = self.vertex_informed[:k].sum(axis=1)

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

    def trial_metadata(self, trial):
        return {
            "agent_density": self.agent_density,
            "lazy": self.lazy,
            "one_agent_per_vertex": self.one_agent_per_vertex,
            **self._churn_metadata(trial),
        }
