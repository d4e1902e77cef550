"""Agent-based protocols with a dynamic, failure-prone agent population.

Section 9 of the paper suggests that agent-based spreading "could tolerate
some number of lost agents, if a dynamic set of agents were used, where
agents age with time and die, while new agents are born at a proportional
rate."  That churn is an axis of the agent kernels
(:class:`~repro.core.kernels.agent.AgentChurn`).  :class:`DynamicAgentsSimulation`
is a thin front end over :func:`~repro.core.batch.run_batch`: it validates a
configuration once, composes churn with a ``dynamics=`` topology schedule,
and packages each trial as a :class:`DynamicAgentsResult` with the
population history, births and deaths the kernel recorded.  With churn off
a run is bit-identical to :func:`repro.simulate` for the same seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

from ..core.batch import run_batch
from ..core.kernels.agent import AgentChurn
from ..core.rng import make_rng
from ..graphs.dynamic import _resolve_dynamics
from ..graphs.graph import Graph

__all__ = ["DynamicAgentsResult", "DynamicAgentsSimulation"]

#: Protocols with an agent population to churn.
AGENT_PROTOCOLS = ("visit-exchange", "meet-exchange", "hybrid-ppull-visitx")


@dataclass
class DynamicAgentsResult:
    """Outcome of one dynamic-population run."""

    graph_name: str
    num_vertices: int
    initial_agents: int
    broadcast_time: Optional[int]
    completed: bool
    rounds_executed: int
    population_history: List[int]
    informed_vertex_history: List[int]
    total_births: int
    total_deaths: int
    protocol: str = "visit-exchange"
    informed_agent_history: List[int] = field(default_factory=list)

    @property
    def min_population(self) -> int:
        """Smallest population size observed during the run."""
        return int(min(self.population_history))


class DynamicAgentsSimulation:
    """Any agent-based protocol under agent churn and topology dynamics.

    ``protocol`` is one of :data:`AGENT_PROTOCOLS`.  Meet-exchange completes
    when every *alive* agent is informed, a moving target under churn.  Its
    rumor can go *extinct*: if every informed agent dies before meeting
    anyone, the silent source cannot restart it and the run reports
    ``completed=False`` — the fragility Section 9 anticipates, which
    visit-exchange escapes because informed vertices persist.

    ``agent_density`` sets the initial population (``round(density * n)``
    stationary agents).  ``death_rate``, ``birth_rate``, ``failure_round``
    and ``failure_fraction`` are the kernel's churn parameters (see
    :class:`~repro.core.kernels.agent.AgentChurn`); bad values raise
    ``ValueError`` here.  ``lazy=None`` follows the kernels: lazy walks for
    meet-exchange on bipartite graphs only.  ``dynamics`` is any
    dynamic-topology spec :func:`repro.scenarios.resolve_dynamics` accepts.
    """

    def __init__(
        self,
        *,
        protocol: str = "visit-exchange",
        agent_density: float = 1.0,
        death_rate: float = 0.01,
        birth_rate: Optional[float] = None,
        failure_round: Optional[int] = None,
        failure_fraction: float = 0.0,
        lazy: Optional[bool] = None,
        dynamics=None,
    ) -> None:
        if protocol not in AGENT_PROTOCOLS:
            known = ", ".join(AGENT_PROTOCOLS)
            raise ValueError(f"unknown agent protocol {protocol!r}; supported: {known}")
        if agent_density <= 0:
            raise ValueError("agent_density must be positive")
        self.protocol = protocol
        self.agent_density = float(agent_density)
        self.churn = AgentChurn(death_rate, birth_rate, failure_round, failure_fraction)
        self.lazy = lazy
        self.dynamics = _resolve_dynamics(dynamics)

    def run(
        self, graph: Graph, source: int, *, seed=None, max_rounds: Optional[int] = None
    ) -> DynamicAgentsResult:
        """Run one trial until completion or budget exhaustion."""
        return self.run_batch(graph, source, seeds=[seed], max_rounds=max_rounds)[0]

    def run_batch(
        self, graph: Graph, source: int, *, seeds: Sequence, max_rounds: Optional[int] = None
    ) -> List[DynamicAgentsResult]:
        """Run ``len(seeds)`` trials in one batch (default budget ``max(1024, 400 n)``).

        Each trial is a pure function of its seed: every element equals what
        :meth:`run` produces for that seed alone.
        """
        n = graph.num_vertices
        batch = run_batch(
            self.protocol,
            graph,
            source,
            seeds=[make_rng(seed) for seed in seeds],
            max_rounds=max_rounds if max_rounds is not None else max(1024, 400 * n),
            record_history=True,
            dynamics=self.dynamics,
            agent_density=self.agent_density,
            lazy=self.lazy,
            **asdict(self.churn),
        )
        initial = batch.num_agents
        return [
            DynamicAgentsResult(
                graph_name=graph.name,
                num_vertices=n,
                initial_agents=initial,
                broadcast_time=run.broadcast_time,
                completed=run.completed,
                rounds_executed=run.rounds_executed,
                population_history=run.metadata.get(
                    "population_history", [initial] * (run.rounds_executed + 1)
                ),
                informed_vertex_history=run.informed_vertex_history,
                total_births=run.metadata.get("births", 0),
                total_deaths=run.metadata.get("deaths", 0),
                protocol=self.protocol,
                informed_agent_history=run.informed_agent_history,
            )
            for run in batch.to_run_results()
        ]
