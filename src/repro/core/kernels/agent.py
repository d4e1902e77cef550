"""Shared agent placement, random-walk stepping and churn for the agent kernels.

The agent-based protocols (visit-exchange, meet-exchange and the hybrid)
maintain a population of independent random walks per trial; positions live
in one ``(trials, agents)`` array and a round advances every walk of every
trial in a single vectorized sampler pass.

Agent churn (Section 9 of the paper: agents that die and are born) is an
axis of these kernels, configured by :class:`AgentChurn`.  With churn on,
the agent arrays span a fixed number of *slots*, an alive mask marks the
slots holding a living agent, and a newborn takes a dead agent's slot.  A
dead agent is masked exactly like an agent standing on a crashed vertex
(see :meth:`AgentWalkKernel._vertex_ok_rows`): it informs nothing, learns
nothing and does not move.  Churn forces the dense representation.  With
churn off the kernels allocate nothing for it and draw nothing extra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ...graphs.graph import Graph
from .base import BatchKernel, NeighborSampler

__all__ = ["AgentChurn", "AgentWalkKernel", "default_agent_count"]


def default_agent_count(graph: Graph, density: float = 1.0) -> int:
    """Number of agents for density ``alpha``: ``max(1, round(alpha * n))``.

    The paper's analyses assume ``|A| = alpha * n`` for a constant
    ``alpha > 0``; the experiments default to ``alpha = 1``.
    """
    if density <= 0:
        raise ValueError("agent density must be positive")
    return max(1, int(round(density * graph.num_vertices)))


@dataclass(frozen=True)
class AgentChurn:
    """Churn of an agent population: deaths, births and a one-off failure.

    Every round, before the walk step, each alive agent dies with
    probability ``death_rate``; at round ``failure_round`` it also dies with
    probability ``failure_fraction``.  Then a Poisson(``birth_rate``) number
    of newborns is placed from the stationary distribution, uninformed.
    ``birth_rate=None`` balances deaths: ``death_rate`` times the initial
    population.
    """

    death_rate: float = 0.0
    birth_rate: Optional[float] = None
    failure_round: Optional[int] = None
    failure_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.death_rate < 1.0:
            raise ValueError("death_rate must lie in [0, 1)")
        if self.birth_rate is not None and self.birth_rate < 0:
            raise ValueError("birth_rate must be non-negative")
        if self.birth_rate and self.death_rate == 0:
            raise ValueError(
                "birth_rate > 0 needs death_rate > 0: the population would "
                "grow without bound"
            )
        if self.failure_round is not None and self.failure_round < 1:
            raise ValueError("failure_round must be at least 1 (round 0 is the start)")
        if not 0.0 <= self.failure_fraction <= 1.0:
            raise ValueError("failure_fraction must lie in [0, 1]")

    @property
    def enabled(self) -> bool:
        """Whether any agent can ever die or be born."""
        return (
            self.death_rate > 0
            or bool(self.birth_rate)
            or (self.failure_round is not None and self.failure_fraction > 0)
        )

    def births_per_round(self, initial: int) -> float:
        """Expected number of newborns per round."""
        if self.birth_rate is not None:
            return float(self.birth_rate)
        return self.death_rate * initial

    def capacity(self, initial: int) -> int:
        """Agent slots per trial, fixed for the whole run.

        The population at any round is a thinned initial population plus
        the surviving newborns; its mean is at most
        ``m = max(initial, births_per_round / death_rate)`` and so is its
        variance.  ``m + 10 sqrt(m) + 10`` slots leave a ten-sigma margin, so
        running out of slots (an error, never a silently dropped birth) is
        far below any realistic run's reach.
        """
        rate = self.births_per_round(initial)
        if rate == 0:
            return initial
        mean = max(float(initial), rate / self.death_rate)
        return int(math.ceil(mean + 10.0 * math.sqrt(mean) + 10.0))


class AgentWalkKernel(BatchKernel):
    """Base kernel for the protocols built on independent random walks."""

    def __init__(
        self,
        *,
        agent_density: float = 1.0,
        num_agents: Optional[int] = None,
        lazy: bool = False,
        one_agent_per_vertex: bool = False,
        death_rate: float = 0.0,
        birth_rate: Optional[float] = None,
        failure_round: Optional[int] = None,
        failure_fraction: float = 0.0,
    ) -> None:
        self.agent_density = float(agent_density)
        self.explicit_num_agents = num_agents
        self.lazy = lazy
        self.one_agent_per_vertex = bool(one_agent_per_vertex)
        self.churn = AgentChurn(death_rate, birth_rate, failure_round, failure_fraction)
        self._num_agents = self._initial_agents = 0

    def _place_agents(self, graph, source: int, gens) -> None:
        """Initial ``positions`` and ``agent_informed``, drawn per trial.

        Sampling the stationary distribution ``deg(v) / 2|E|`` is equivalent to
        picking a uniformly random directed-edge slot and taking its source
        vertex, so placement is one gather over the slot-source array instead
        of a per-trial inverse-CDF search.  Agents starting on the source are
        informed.  Under churn the arrays are widened to the slot capacity;
        the extra slots start dead.
        """
        num_trials = len(gens)
        if self.one_agent_per_vertex:
            initial = graph.num_vertices
            positions = np.tile(np.arange(initial, dtype=np.int64), (num_trials, 1))
        else:
            initial = (
                int(self.explicit_num_agents)
                if self.explicit_num_agents is not None
                else default_agent_count(graph, self.agent_density)
            )
            if initial < 1:
                raise ValueError("need at least one agent")
            uniforms = np.empty((num_trials, initial))
            for t, gen in enumerate(gens):
                gen.random(out=uniforms[t])
            positions = self._stationary(uniforms)
        self._initial_agents = initial
        self._alive = self._alive_rows = None
        if self.churn.enabled:
            slots = self.churn.capacity(initial)
            positions = np.pad(positions, ((0, 0), (0, slots - initial)))
            self._alive = np.zeros((num_trials, slots), dtype=bool)
            self._alive[:, :initial] = True
            self._birth_rate = self.churn.births_per_round(initial)
            self._births = np.zeros(num_trials, dtype=np.int64)
            self._deaths = np.zeros(num_trials, dtype=np.int64)
            self._population_history = [[initial] for _ in range(num_trials)]
            self._register_rows(self._alive)
        self._num_agents = positions.shape[1]
        self.positions = positions
        self.agent_informed = positions == source
        if self._alive is not None:
            self.agent_informed &= self._alive
        self._register_rows(self.positions, self.agent_informed)

    def _stationary(self, uniforms: np.ndarray) -> np.ndarray:
        """Stationary vertices for an array of uniforms in ``[0, 1)``."""
        slot_sources = self.graph.slot_sources()
        slots = (uniforms * slot_sources.size).astype(np.int64)
        np.minimum(slots, slot_sources.size - 1, out=slots)
        return slot_sources[slots]

    def _setup_walk(self, uses_lazy: bool) -> None:
        width = self._num_agents
        self._walk_sampler = NeighborSampler(self, width, lazy=uses_lazy)
        self._position_flat = self._scratch("flat", np.int64, width)
        self._masked = self._scratch("offsets", np.int64, width)
        self._gathered = self._scratch("gathered", bool, width)
        self._row_base1 = self._flat_row_base(width)
        # Lazily allocated on the first round with a materialized vertex mask.
        self._vertex_ok = None

    def _walk_rows(self, k: int) -> np.ndarray:
        """Churn (when on), then one walk step for the first ``k`` rows.

        Returns the new positions, in the sampler's vertex-id width (see
        :func:`~repro.core.kernels.base.vertex_id_dtype`).  The int64
        ``self.positions`` is left untouched so callers can still read the
        pre-step positions (edge reporting, meeting rules); they commit the
        move by assigning the returned buffer back into ``positions``.  Under
        a topology schedule, blocked traversals already resolve to "stay
        put"; dead agents stay put too.
        """
        positions = self.positions[:k]
        if self._alive is None:
            return self._walk_sampler.sample_walk(k, positions)
        self._churn_round(k)
        moved = self._walk_sampler.sample_walk(k, positions)
        np.copyto(moved, positions, where=~self._alive_rows, casting="unsafe")
        return moved

    def _churn_round(self, k: int) -> None:
        """Deaths, the failure event and births for the first ``k`` rows.

        Per trial and round: one death coin per slot (plus one failure coin
        per slot in the failure round), one Poisson birth count and one
        placement uniform per newborn, all from the trial's own generator,
        so a trial stays a pure function of its seed.  Dead agents lose the
        rumor; newborns take the lowest free slots.
        """
        churn = self.churn
        failing = self._round_count == churn.failure_round
        slots = self._num_agents
        for row in range(k):
            gen = self._gens[row]
            alive = self._alive[row]
            dies = gen.random(slots) < churn.death_rate
            if failing:
                dies |= gen.random(slots) < churn.failure_fraction
            dies &= alive
            alive &= ~dies
            self.agent_informed[row] &= alive
            births = int(gen.poisson(self._birth_rate)) if self._birth_rate > 0 else 0
            trial = int(self.trial_ids[row])
            if births:
                free = np.flatnonzero(~alive)[:births]
                if free.size < births:
                    raise RuntimeError(
                        f"agent churn overflow in trial {trial}: {births} births "
                        f"but only {free.size} free slots of the capacity {slots}"
                    )
                self.positions[row, free] = self._stationary(gen.random(births))
                alive[free] = True
            self._births[trial] += births
            self._deaths[trial] += int(np.count_nonzero(dies))
            self._population_history[trial].append(int(np.count_nonzero(alive)))
        self._alive_rows = self._alive[:k]

    def _vertex_ok_rows(self, k: int, positions: np.ndarray) -> Optional[np.ndarray]:
        """(k, agents) mask of the agents that may interact this round, or None.

        An agent interacts when it is alive and stands on an active vertex.
        ``None`` whenever there is neither churn nor a vertex mask —
        agent/vertex interactions are then unrestricted, which is the common
        fast path.
        """
        if self._vertex_active is None:
            return self._alive_rows
        if self._vertex_ok is None:
            self._vertex_ok = self._scratch("vertex_ok", bool, self._num_agents)
        out = self._vertex_ok[:k]
        np.take(self._vertex_active, positions, out=out, mode="clip")
        if self._alive_rows is not None:
            out &= self._alive_rows
        return out

    def _alive_agents_informed(self, k: int) -> np.ndarray:
        """Completion under churn: every alive agent informed, and one alive."""
        population = self._alive[:k].sum(axis=1)
        informed = self.agent_informed[:k].sum(axis=1)
        return (informed == population) & (population > 0)

    def _churn_metadata(self, trial: int) -> Dict[str, Any]:
        """Churn parameters and the trial's population record ({} without churn)."""
        if self._alive is None:
            return {}
        return {
            "death_rate": self.churn.death_rate,
            "birth_rate": self._birth_rate,
            "failure_round": self.churn.failure_round,
            "failure_fraction": self.churn.failure_fraction,
            "population_history": list(self._population_history[trial]),
            "births": int(self._births[trial]),
            "deaths": int(self._deaths[trial]),
        }

    def informed_agent_counts(self, k):
        return self.agent_informed[:k].sum(axis=1)

    def num_agents(self) -> int:
        """Initial population size (churn may change it during the run)."""
        return self._initial_agents
