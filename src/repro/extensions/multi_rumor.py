"""Multiple rumors disseminated in parallel by one agent population.

Section 1 of the paper motivates the stationary-start assumption with exactly
this setting: "several pieces of information (or rumors) are generated
frequently and distributed in parallel over time by the same set of agents,
which execute perpetual independent random walks."  This module implements
that setting for the visit-exchange mechanics: a single population of walking
agents carries many rumors, each injected at its own (round, source) pair, and
the simulator records a per-rumor broadcast time.

Rumor sets are stored as boolean matrices (vertices x rumors and
agents x rumors) and updated with vectorized numpy operations, so the per-round
cost is O((n + |A|) * r / 64) words for ``r`` concurrent rumors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.agents import AgentSystem, default_agent_count
from ..core.rng import make_rng
from ..graphs.graph import Graph, GraphError

__all__ = ["RumorInjection", "MultiRumorResult", "MultiRumorVisitExchange"]


@dataclass(frozen=True)
class RumorInjection:
    """One rumor: the round it is generated and the vertex it starts from."""

    round_index: int
    source: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError("injection rounds must be non-negative")


@dataclass
class MultiRumorResult:
    """Outcome of a multi-rumor run.

    ``broadcast_times[i]`` is the number of rounds between the injection of
    rumor ``i`` and the round when every vertex knows it (None if the run hit
    the round budget first).
    """

    graph_name: str
    num_vertices: int
    num_agents: int
    injections: List[RumorInjection]
    completion_rounds: List[Optional[int]]
    rounds_executed: int

    @property
    def broadcast_times(self) -> List[Optional[int]]:
        """Per-rumor latency from injection to full coverage."""
        times: List[Optional[int]] = []
        for injection, completed_at in zip(self.injections, self.completion_rounds):
            if completed_at is None:
                times.append(None)
            else:
                times.append(completed_at - injection.round_index)
        return times

    @property
    def all_completed(self) -> bool:
        """True when every rumor reached every vertex within the budget."""
        return all(value is not None for value in self.completion_rounds)

    def max_broadcast_time(self) -> Optional[int]:
        """Largest per-rumor broadcast time (None if any rumor is incomplete)."""
        times = self.broadcast_times
        if any(t is None for t in times):
            return None
        return max(times)  # type: ignore[arg-type]

    def mean_broadcast_time(self) -> Optional[float]:
        """Mean per-rumor broadcast time over completed rumors."""
        times = [t for t in self.broadcast_times if t is not None]
        if not times:
            return None
        return float(np.mean(times))


class MultiRumorVisitExchange:
    """Visit-exchange dynamics carrying many rumors with one agent population.

    The update rule per round is the natural multi-rumor generalisation of
    Section 3: agents informed of rumor ``i`` in a previous round stamp it on
    the vertices they visit, and agents standing on a vertex that knows rumor
    ``i`` (from a previous round or this one) learn it.

    Parameters
    ----------
    agent_density / num_agents / lazy:
        Agent population parameters, as for ``run_batch("visit-exchange",
        ...)`` (see :class:`~repro.core.kernels.visit_exchange.VisitExchangeKernel`).
    """

    def __init__(
        self,
        *,
        agent_density: float = 1.0,
        num_agents: Optional[int] = None,
        lazy: bool = False,
    ) -> None:
        self.agent_density = float(agent_density)
        self.explicit_num_agents = num_agents
        self.lazy = bool(lazy)

    def run(
        self,
        graph: Graph,
        injections: Sequence[RumorInjection],
        *,
        seed=None,
        max_rounds: Optional[int] = None,
    ) -> MultiRumorResult:
        """Simulate until every rumor has covered the graph (or budget runs out)."""
        if not injections:
            raise ValueError("need at least one rumor injection")
        for injection in injections:
            if not (0 <= injection.source < graph.num_vertices):
                raise GraphError(f"injection source {injection.source} out of range")
        if not graph.is_connected():
            raise GraphError("multi-rumor dissemination is defined on connected graphs")

        rng = make_rng(seed)
        num_rumors = len(injections)
        count = (
            int(self.explicit_num_agents)
            if self.explicit_num_agents is not None
            else default_agent_count(graph, self.agent_density)
        )
        agents = AgentSystem.from_stationary(graph, count, rng, lazy=self.lazy)

        n = graph.num_vertices
        vertex_knows = np.zeros((n, num_rumors), dtype=bool)
        agent_knows = np.zeros((agents.num_agents, num_rumors), dtype=bool)
        completion_rounds: List[Optional[int]] = [None] * num_rumors

        budget = (
            int(max_rounds)
            if max_rounds is not None
            else max(1024, 200 * n)
        )
        last_injection = max(inj.round_index for inj in injections)

        def inject(round_index: int) -> None:
            for rumor_index, injection in enumerate(injections):
                if injection.round_index == round_index:
                    vertex_knows[injection.source, rumor_index] = True
                    at_source = agents.agents_at(injection.source)
                    agent_knows[at_source, rumor_index] = True

        def record_completions(round_index: int) -> None:
            covered = vertex_knows.all(axis=0)
            for rumor_index in range(num_rumors):
                if completion_rounds[rumor_index] is None and covered[rumor_index]:
                    # A rumor injected at an isolated moment covers trivially
                    # only once it has actually been injected.
                    if injections[rumor_index].round_index <= round_index:
                        completion_rounds[rumor_index] = round_index

        inject(0)
        record_completions(0)

        round_index = 0
        while round_index < budget:
            if all(c is not None for c in completion_rounds) and round_index >= last_injection:
                break
            round_index += 1

            informed_before = agent_knows.copy()
            agents.step(rng)
            inject(round_index)

            # Agents stamp the rumors they knew before the round onto the
            # vertices they now occupy: OR-scatter by destination vertex.
            if informed_before.any():
                np.logical_or.at(vertex_knows, agents.positions, informed_before)

            # Agents learn every rumor known by the vertex they stand on.
            agent_knows |= vertex_knows[agents.positions]

            record_completions(round_index)

        return MultiRumorResult(
            graph_name=graph.name,
            num_vertices=n,
            num_agents=agents.num_agents,
            injections=list(injections),
            completion_rounds=completion_rounds,
            rounds_executed=round_index,
        )
