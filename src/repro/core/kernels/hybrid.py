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

from .agent import AgentWalkKernel
from .vertex import VertexKernel
from .visit_exchange import VisitRule

__all__ = ["HybridKernel"]


class HybridKernel(VisitRule, VertexKernel, AgentWalkKernel):
    """Batched hybrid: PUSH-PULL and VISIT-EXCHANGE share one informed set.

    The vertex half is push-pull's: both call directions of
    :class:`~repro.core.kernels.vertex.VertexKernel`, in either tier.  The
    agent half is the visit rule of
    :class:`~repro.core.kernels.visit_exchange.VisitRule`.  The kernel only
    orders them; every vertex calls every round, and agent visits send no
    messages.
    """

    name = "hybrid-ppull-visitx"
    _pushes = True
    _pulls = True

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
        mode = self._resolve_frontier(supported=not self.churn.enabled)
        self._place_agents(graph, source, gens)
        # The halves borrow the same scratch in different phases of a round.
        self._arena_width = max(graph.num_vertices, self._num_agents)
        # Two draw streams per round: the callee stream of the vertex half and
        # the walk stream of the agents.  The sparse tier of the vertex half
        # merely reads the callee stream at frontier positions, so both tiers
        # consume each trial's generator identically.
        self._setup_calls(graph, int(source), mode)
        self._setup_walk(self.lazy)
        self._all_agents_informed = False

    def step(self, k):
        self._begin_round()
        self._next_tier(k)
        self._count_messages(k)
        pushed = self._exchange(k)
        new_positions = self._walk_rows(k)
        self._visit(k, new_positions, self._vertex_ok_rows(k, new_positions))
        # The sparse index lists reconcile the writes of both halves.
        self._settle(k, pushed)

    def _report_edges(self, k, callees, ok):
        """The hybrid reports no edges; observers see its per-round counts."""

    def trial_metadata(self, trial):
        return {
            "agent_density": self.agent_density,
            "lazy": self.lazy,
            **self._churn_metadata(trial),
        }
