"""The PUSH-PULL + VISIT-EXCHANGE hybrid kernel.

The paper's introduction concludes that "agent-based information
dissemination, separately or **in combination with push-pull**, can
significantly improve the broadcast time".  This kernel implements the obvious
combination: vertices run push-pull every round, and a linear number of agents
simultaneously runs visit-exchange over the *same* informed-vertex set.

Per round, in order: (1) every vertex performs a push-pull exchange with a
random neighbor; (2) all agents take one random-walk step and apply the
visit-exchange rules against the shared informed-vertex set.  Completion is
"all vertices informed", as for push-pull and visit-exchange.  On every
example family of Figure 1 the hybrid inherits the faster of the two
mechanisms (up to constants): push-pull rescues it on the heavy binary tree
and its siamese variant, while the agents rescue it on the double star.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agent import AgentWalkKernel
from .base import NeighborSampler
from .vertex import SparseVertexMixin

__all__ = ["HybridKernel"]


class HybridKernel(SparseVertexMixin, AgentWalkKernel):
    """Batched hybrid: PUSH-PULL and VISIT-EXCHANGE share one informed set."""

    name = "hybrid-ppull-visitx"
    _sparse_needs_frontier = True
    _sparse_needs_uninformed = True

    def __init__(
        self,
        *,
        agent_density: float = 1.0,
        num_agents: Optional[int] = None,
        lazy: bool = False,
        **churn,
    ) -> None:
        super().__init__(
            agent_density=agent_density, num_agents=num_agents, lazy=lazy, **churn
        )
        self.lazy = bool(self.lazy)

    def initialize(self, graph, source, gens):
        self._setup_common(graph, gens)
        sparse = self._resolve_frontier(supported=not self.churn.enabled) == "sparse"
        shape = (self.num_trials, graph.num_vertices)
        self._place_agents(graph, source, gens)
        # Slot 0 of the flat buffer is a write sink (see VisitExchangeKernel).
        # The boolean vertex state stays in *both* tiers: the agent half's
        # vectorized gathers/scatters need it; the sparse tier drops only the
        # n-wide vertex sampler and its scratch.
        self._vertex_flat = np.zeros(self.num_trials * graph.num_vertices + 1, dtype=bool)
        self.vertex_informed = self._vertex_flat[1:].reshape(shape)
        self.vertex_informed[:, source] = True
        self.counts = np.ones(self.num_trials, dtype=np.int64)
        self._messages = np.zeros(self.num_trials, dtype=np.int64)
        self._register_rows(self.vertex_informed, self.counts, self._messages)
        # Two draw streams per round: the vertex callee stream of the
        # push-pull half and the agent walk stream of the visit-exchange half.
        # The sparse tier keeps the same two streams (same widths, same
        # refill block) and merely reads the vertex stream at frontier
        # positions, so both tiers consume each trial's generator
        # identically.
        if sparse:
            self._setup_sparse_vertex(graph, int(source))
        else:
            self._vertex_sampler = NeighborSampler(self, graph.num_vertices)
            self._callee_flat = np.empty(shape, dtype=np.int64)
            self._vertex_masked = self._vertex_sampler.offsets
            self._vertex_gathered = np.empty(shape, dtype=bool)
            self._pull_scratch = np.empty(shape, dtype=bool)
            self._vertex_row_base1 = self._materialized_row_base(graph.num_vertices)
        self._setup_walk(self.lazy)

    def _step_sparse(self, k):
        """Sparse round: the push-pull half walks per-trial frontier and
        uninformed lists against the boolean vertex state (both directions'
        membership tests run before any write, the dense path's pre-round
        discipline); the visit-exchange half is unchanged — its work is
        already proportional to the agent population.  List maintenance runs
        once at the end of the round, reconciling the writes of both halves.
        """
        n = self.graph.num_vertices
        start = self._raw_round_start(k, self._sparse_stream)
        for row in range(k):
            self._messages[row] += n
            informed_row = self.vertex_informed[row]
            frontier = self._frontier_rows[row]
            uninformed = self._uninformed_rows[row]
            parts = []
            if frontier.size:
                pushed = self._sparse_callees(row, start, frontier)
                pushed = pushed[~informed_row[pushed]]
                if pushed.size:
                    parts.append(pushed)
            if uninformed.size:
                pulled_from = self._sparse_callees(row, start, uninformed)
                got = informed_row[pulled_from]
                if got.any():
                    parts.append(uninformed[got].astype(np.int64))
            if parts:
                informed_row[np.concatenate(parts) if len(parts) > 1 else parts[0]] = True

        new_positions = self._walk_rows(k)
        informed_agents = self.agent_informed[:k]
        position_flat = self._position_flat[:k]
        np.add(self._row_base1[:k], new_positions, out=position_flat)
        agent_masked = self._masked[:k]
        np.multiply(position_flat, informed_agents, out=agent_masked)
        self._vertex_flat[agent_masked] = True
        on_informed = self._gathered[:k]
        np.take(self._vertex_flat, position_flat, out=on_informed, mode="clip")
        informed_agents |= on_informed
        self.positions[:k] = new_positions

        for row in range(k):
            uninformed = self._uninformed_rows[row]
            now_informed = self.vertex_informed[row, uninformed]
            if now_informed.any():
                newly = uninformed[now_informed].astype(np.int64)
                self._uninformed_rows[row] = uninformed[~now_informed]
                self._sparse_note_informed(row, newly)
            self.counts[row] = n - self._uninformed_rows[row].size

    def step(self, k):
        self._begin_round()
        if self.frontier_resolved == "sparse":
            self._step_sparse(k)
            return

        # --- push-pull sub-round -------------------------------------------
        vertex_informed = self.vertex_informed[:k]
        callees = self._vertex_sampler.sample_per_vertex(k)
        ok = self._vertex_sampler.round_ok(k)
        callee_flat = self._callee_flat[:k]
        np.add(callees, self._vertex_row_base1[:k], out=callee_flat)
        callee_informed = self._vertex_gathered[:k]
        np.take(self._vertex_flat, callee_flat, out=callee_informed, mode="clip")
        vertex_masked = self._vertex_masked[:k]
        push_mask = np.greater(vertex_informed, callee_informed, out=self._pull_scratch[:k])
        if ok is not None:
            push_mask &= ok
        np.multiply(callee_flat, push_mask, out=vertex_masked)
        pull_mask = np.greater(callee_informed, vertex_informed, out=push_mask)
        if ok is not None:
            pull_mask &= ok
        self._vertex_flat[vertex_masked] = True
        vertex_informed |= pull_mask
        self._messages[:k] += self.graph.num_vertices

        # --- visit-exchange sub-round --------------------------------------
        new_positions = self._walk_rows(k)
        vertex_ok = self._vertex_ok_rows(k, new_positions)
        informed_agents = self.agent_informed[:k]
        position_flat = self._position_flat[:k]
        np.add(self._row_base1[:k], new_positions, out=position_flat)
        # Agents informed in a previous round inform the vertices they visit
        # (crashed vertices and dead agents host no agent/vertex interactions
        # either way).
        agent_masked = self._masked[:k]
        np.multiply(position_flat, informed_agents, out=agent_masked)
        if vertex_ok is not None:
            np.multiply(agent_masked, vertex_ok, out=agent_masked)
        self._vertex_flat[agent_masked] = True
        # Agents learn from any informed vertex they stand on.
        on_informed = self._gathered[:k]
        np.take(self._vertex_flat, position_flat, out=on_informed, mode="clip")
        if vertex_ok is not None:
            on_informed &= vertex_ok
        informed_agents |= on_informed

        self.counts[:k] = vertex_informed.sum(axis=1)
        self.positions[:k] = new_positions

    def complete_rows(self, k):
        return self.counts[:k] >= self.graph.num_vertices

    def informed_vertex_counts(self, k):
        return self.counts[:k]

    def informed_agent_counts(self, k):
        return self.agent_informed[:k].sum(axis=1)

    def messages_by_trial(self):
        out = np.empty(self.num_trials, dtype=np.int64)
        out[self.trial_ids] = self._messages
        return out

    def trial_metadata(self, trial):
        return {
            "agent_density": self.agent_density,
            "lazy": self.lazy,
            **self._churn_metadata(trial),
        }
