"""The Section-5 coupling between PUSH and VISIT-EXCHANGE.

The paper's main technical tool is a coupling of the two processes: for every
vertex ``u`` there is a single shared list of uniformly random neighbor choices
``w_u(1), w_u(2), ...``.  In the coupled PUSH process, ``w_u(i)`` is the
neighbor that ``u`` samples in its ``i``-th round after becoming informed.  In
the coupled VISIT-EXCHANGE process, the agent performing the ``i``-th visit to
``u`` *after ``u`` became informed* moves to ``w_u(i)`` on its next step
(visits in the same round are ordered by agent id; all other steps remain
uniformly random and independent).

On top of the coupled run this module computes the quantities the proof of
Theorem 10 is built from:

* the *C-counters* ``C_u(t)`` of Section 5.3 (Equation 4), and
* the congestion ``Q`` of the information path (Lemma 14 shows
  ``C_u(t)`` equals the congestion of a canonical walk).

Lemma 13 (``tau_u <= C_u(t_u)``) then becomes an exact, machine-checkable
invariant of the coupled run, and the experiments verify empirically that
``max_u C_u(t_u) / T_visitx`` stays bounded by a constant on regular graphs —
the heart of Theorem 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..graphs.graph import Graph, GraphError
from .kernels.agent import default_agent_count
from .rng import make_rng

__all__ = ["NeighborChoices", "CoupledRunResult", "CoupledPushVisitExchange"]


class NeighborChoices:
    """Lazily generated shared neighbor-choice lists ``w_u(i)``.

    Both coupled processes read from the same instance, which is exactly what
    makes them coupled: the ``i``-th choice of vertex ``u`` is generated on
    first access and returned verbatim on every later access.
    """

    def __init__(self, graph: Graph, rng: np.random.Generator) -> None:
        self._graph = graph
        self._rng = make_rng(rng)
        self._choices: Dict[int, List[int]] = {}

    def choice(self, vertex: int, index: int) -> int:
        """Return ``w_vertex(index)`` (1-based index, as in the paper)."""
        if index < 1:
            raise ValueError("choice indices are 1-based")
        bucket = self._choices.setdefault(int(vertex), [])
        while len(bucket) < index:
            bucket.append(int(self._graph.sample_neighbor(int(vertex), self._rng)))
        return bucket[index - 1]


@dataclass
class CoupledRunResult:
    """Everything measured on one coupled run.

    Attributes
    ----------
    push_inform_round:
        ``tau_u`` for every vertex (round at which PUSH informs it).
    visitx_inform_round:
        ``t_u`` for every vertex (round at which VISIT-EXCHANGE informs it).
    c_counter_at_inform:
        ``C_u(t_u)`` for every vertex.
    push_broadcast_time / visitx_broadcast_time:
        ``T_push`` and ``T_visitx`` of the coupled processes.
    """

    num_vertices: int
    num_agents: int
    push_inform_round: np.ndarray
    visitx_inform_round: np.ndarray
    c_counter_at_inform: np.ndarray
    push_broadcast_time: int
    visitx_broadcast_time: int

    def lemma13_holds(self) -> bool:
        """Check Lemma 13: ``tau_u <= C_u(t_u)`` for every vertex."""
        return bool(np.all(self.push_inform_round <= self.c_counter_at_inform))

    def lemma13_violations(self) -> List[int]:
        """Vertices (if any) violating Lemma 13 — must be empty."""
        mask = self.push_inform_round > self.c_counter_at_inform
        return [int(v) for v in np.flatnonzero(mask)]

    def max_congestion(self) -> int:
        """``max_u C_u(t_u)`` — an upper bound on T_push by Lemma 13."""
        return int(self.c_counter_at_inform.max())

    def congestion_ratio(self) -> float:
        """``max_u C_u(t_u) / T_visitx`` — bounded by a constant per Theorem 10."""
        return self.max_congestion() / max(self.visitx_broadcast_time, 1)

    def broadcast_time_ratio(self) -> float:
        """``T_push / T_visitx`` for the coupled pair."""
        return self.push_broadcast_time / max(self.visitx_broadcast_time, 1)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the per-vertex arrays as int lists)."""
        return {
            "num_vertices": int(self.num_vertices),
            "num_agents": int(self.num_agents),
            "push_inform_round": [int(v) for v in self.push_inform_round],
            "visitx_inform_round": [int(v) for v in self.visitx_inform_round],
            "c_counter_at_inform": [int(v) for v in self.c_counter_at_inform],
            "push_broadcast_time": int(self.push_broadcast_time),
            "visitx_broadcast_time": int(self.visitx_broadcast_time),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CoupledRunResult":
        """Invert :meth:`to_dict` exactly (all quantities are integers)."""
        return cls(
            num_vertices=int(payload["num_vertices"]),
            num_agents=int(payload["num_agents"]),
            push_inform_round=np.asarray(payload["push_inform_round"], dtype=np.int64),
            visitx_inform_round=np.asarray(payload["visitx_inform_round"], dtype=np.int64),
            c_counter_at_inform=np.asarray(payload["c_counter_at_inform"], dtype=np.int64),
            push_broadcast_time=int(payload["push_broadcast_time"]),
            visitx_broadcast_time=int(payload["visitx_broadcast_time"]),
        )


class CoupledPushVisitExchange:
    """Run PUSH and VISIT-EXCHANGE under the Section-5.1 coupling.

    Parameters
    ----------
    agent_density:
        ``alpha`` with ``|A| = round(alpha * n)``.
    num_agents:
        Explicit agent count overriding ``agent_density``.
    one_agent_per_vertex:
        Use the alternative initial placement (one agent per vertex).
    """

    def __init__(
        self,
        *,
        agent_density: float = 1.0,
        num_agents: Optional[int] = None,
        one_agent_per_vertex: bool = False,
    ) -> None:
        self.agent_density = float(agent_density)
        self.explicit_num_agents = num_agents
        self.one_agent_per_vertex = bool(one_agent_per_vertex)

    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        source: int,
        seed=None,
        *,
        max_rounds: Optional[int] = None,
    ) -> CoupledRunResult:
        """Execute the coupled processes until both have completed."""
        if not graph.is_connected():
            raise GraphError("the coupling is defined on connected graphs")
        if not (0 <= source < graph.num_vertices):
            raise GraphError("source vertex out of range")

        rng = make_rng(seed)
        choices = NeighborChoices(graph, rng)
        budget = (
            int(max_rounds)
            if max_rounds is not None
            else max(256, 200 * graph.num_vertices)
        )

        visitx = self._run_visit_exchange(graph, source, choices, rng, budget)
        push = self._run_push(graph, source, choices, budget)

        return CoupledRunResult(
            num_vertices=graph.num_vertices,
            num_agents=visitx["num_agents"],
            push_inform_round=push["inform_round"],
            visitx_inform_round=visitx["inform_round"],
            c_counter_at_inform=visitx["c_counter"],
            push_broadcast_time=push["broadcast_time"],
            visitx_broadcast_time=visitx["broadcast_time"],
        )

    # ------------------------------------------------------------------
    def _run_visit_exchange(
        self,
        graph: Graph,
        source: int,
        choices: NeighborChoices,
        rng: np.random.Generator,
        budget: int,
    ) -> dict:
        """Coupled VISIT-EXCHANGE: departures from informed vertices follow w_u(i)."""
        n = graph.num_vertices
        if self.one_agent_per_vertex:
            positions = np.arange(n, dtype=np.int64)
        else:
            count = (
                int(self.explicit_num_agents)
                if self.explicit_num_agents is not None
                else default_agent_count(graph, self.agent_density)
            )
            if count < 1:
                raise ValueError("need at least one agent")
            positions = rng.choice(n, size=count, p=graph.stationary_distribution())

        inform_round = np.full(n, -1, dtype=np.int64)
        inform_round[source] = 0
        c_counter = np.zeros(n, dtype=np.int64)
        c_at_inform = np.zeros(n, dtype=np.int64)
        # Number of coupled choices already consumed per vertex.
        consumed = np.zeros(n, dtype=np.int64)
        informed_vertices = 1
        agent_informed = positions == source

        broadcast_time = 0 if informed_vertices == n else None
        round_index = 0
        while broadcast_time is None and round_index < budget:
            round_index += 1
            previous_positions = positions
            informed_before_step = agent_informed
            occupancy_before = np.bincount(positions, minlength=n)

            # --- move agents: coupled from informed vertices, uniform otherwise.
            positions = np.empty_like(previous_positions)
            order = np.argsort(previous_positions, kind="stable")
            for agent in order.tolist():
                here = int(previous_positions[agent])
                if inform_round[here] >= 0 and inform_round[here] <= round_index - 1:
                    consumed[here] += 1
                    positions[agent] = choices.choice(here, int(consumed[here]))
                else:
                    positions[agent] = graph.sample_neighbor(here, rng)

            # --- C-counter update for vertices informed before this round.
            previously_informed = inform_round >= 0
            c_counter[previously_informed] += occupancy_before[previously_informed]

            # --- vertex informing by previously informed agents.
            informing_positions = positions[informed_before_step]
            newly_informed_vertices = np.unique(
                informing_positions[inform_round[informing_positions] < 0]
            )
            for vertex in newly_informed_vertices.tolist():
                inform_round[vertex] = round_index
                # S_u: neighbors from which an informed agent just arrived.
                arrivals = informed_before_step & (positions == vertex)
                origins = np.unique(previous_positions[arrivals])
                valid = [
                    int(v)
                    for v in origins.tolist()
                    if 0 <= inform_round[int(v)] < round_index
                ]
                if valid:
                    c_counter[vertex] = int(min(c_counter[v] for v in valid))
                c_at_inform[vertex] = c_counter[vertex]
                informed_vertices += 1

            # --- agents learn from informed vertices.
            agent_informed = informed_before_step | (inform_round[positions] >= 0)

            if informed_vertices == n:
                broadcast_time = round_index

        if broadcast_time is None:
            raise RuntimeError(
                "coupled visit-exchange did not finish within the round budget"
            )
        c_at_inform[source] = 0
        return {
            "inform_round": inform_round,
            "c_counter": c_at_inform,
            "broadcast_time": broadcast_time,
            "num_agents": int(positions.size),
        }

    # ------------------------------------------------------------------
    def _run_push(
        self, graph: Graph, source: int, choices: NeighborChoices, budget: int
    ) -> dict:
        """Coupled PUSH: vertex u's i-th sample after being informed is w_u(i)."""
        n = graph.num_vertices
        inform_round = np.full(n, -1, dtype=np.int64)
        inform_round[source] = 0
        informed = 1

        round_index = 0
        # The coupled push must be allowed more rounds than visit-exchange used;
        # Theorem 10 only promises a constant-factor relation.
        push_budget = max(budget, 64) * 4
        while informed < n and round_index < push_budget:
            round_index += 1
            senders = np.flatnonzero((inform_round >= 0) & (inform_round < round_index))
            for sender in senders.tolist():
                index = round_index - int(inform_round[sender])
                target = choices.choice(sender, index)
                if inform_round[target] < 0:
                    inform_round[target] = round_index
                    informed += 1
        if informed < n:
            raise RuntimeError("coupled push did not finish within the round budget")
        return {"inform_round": inform_round, "broadcast_time": round_index}
