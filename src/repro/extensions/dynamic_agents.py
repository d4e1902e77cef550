"""Agent-based protocols with a dynamic, failure-prone agent population.

The paper's open-problems section (Section 9) observes that the agent-based
protocols are probably not as failure-robust as rumor spreading — agents can
get lost on faulty nodes or links — and suggests that "the protocols could
tolerate some number of lost agents, if a dynamic set of agents were used,
where agents age with time and die, while new agents are born at a
proportional rate."

:class:`DynamicAgentsSimulation` implements that dynamic population for
**every agent-based protocol** of the registry (visit-exchange,
meet-exchange and the push-pull + visit-exchange hybrid), batched over
trials, and composes with the dynamic-topology layer of
:mod:`repro.graphs.dynamic` — so agent churn and node/link failures can be
studied together:

* every round, each agent independently dies with probability ``death_rate``;
* new agents are born at vertices sampled from the stationary distribution, at
  a rate chosen so the expected population stays at its initial size
  (``birth_rate`` can also be set explicitly);
* newborn agents start uninformed and pick the rumor up through the
  protocol's ordinary rules;
* optionally, a one-off *failure event* kills a fraction of the population at
  a chosen round (to measure recovery);
* optionally, a :class:`~repro.graphs.dynamic.TopologySchedule` masks edges
  and vertices per round: blocked traversals leave agents where they are, and
  crashed vertices host no interactions (agents on one are stuck until it
  recovers — the "lost agents" of Section 9).

Execution model: all trials of a batch advance through one shared round
loop on rectangular ``(trials, capacity)`` arrays with an alive-mask (dead
and not-yet-born agents occupy masked slots), and each trial draws all of
its randomness from its own generator with shapes that depend only on that
trial's history — so a trial's outcome is a pure function of its seed,
independent of the surrounding batch.  :class:`DynamicVisitExchange` is the
original visit-exchange-only entry point, kept as a thin wrapper.

Relationship to the kernel layer: the protocol *rules* applied here (the
visit-exchange delivery/learning rules, meet-exchange's source hand-off and
meetings, the hybrid's push-pull sub-round) mirror the kernels in
:mod:`repro.core.kernels` but are re-stated over the alive-masked arrays,
because the kernels' row-compacted fixed-width state has no notion of a
population that grows and shrinks mid-run.  That duplication is deliberate
and guarded: the zero-churn configuration of every protocol is asserted to
match its kernel statistically (``tests/test_dynamic_agents.py``), so a
rule change in a kernel that is not mirrored here fails the suite.  If
churn ever becomes a first-class kernel axis (an alive-mask next to the
topology masks), this module should collapse back onto the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.rng import make_rng
from ..graphs.dynamic import DynamicsRuntime, _resolve_dynamics
from ..graphs.graph import Graph, GraphError

__all__ = ["DynamicAgentsResult", "DynamicAgentsSimulation", "DynamicVisitExchange"]

#: Protocols supported by the dynamic-population engine.
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

    @property
    def mean_population(self) -> float:
        """Average population size over the run."""
        return float(np.mean(self.population_history))


class _TrialState:
    """Bookkeeping of one trial: stream, capacity, histories, completion."""

    def __init__(self, gen: np.random.Generator, capacity: int) -> None:
        self.gen = gen
        self.capacity = capacity
        self.population_history: List[int] = []
        self.informed_vertex_history: List[int] = []
        self.informed_agent_history: List[int] = []
        self.total_births = 0
        self.total_deaths = 0
        self.broadcast_time: Optional[int] = None
        self.rounds_executed = 0


class DynamicAgentsSimulation:
    """Any agent-based protocol under agent churn and topology dynamics.

    Parameters
    ----------
    protocol:
        ``"visit-exchange"`` (vertices and agents store the rumor; completion
        is all vertices informed), ``"meet-exchange"`` (only agents store it;
        completion is all *currently alive* agents informed — a moving target
        under churn, since newborns start uninformed) or
        ``"hybrid-ppull-visitx"`` (push-pull on the vertices plus the agent
        population; completion is all vertices informed).

        Note that under churn the meet-exchange rumor can go *extinct*: the
        source hands the rumor to its first visitors and goes silent, so if
        every informed agent dies before meeting anyone, no agent can ever
        recover it and the run honestly reports ``completed=False``.  This is
        the fragility Section 9 anticipates — visit-exchange does not share
        it because informed vertices persist.
    agent_density:
        Initial population: ``round(agent_density * n)`` agents from the
        stationary distribution.
    death_rate:
        Per-agent, per-round probability of disappearing.
    birth_rate:
        Expected number of new agents per round (a Poisson rate).  ``None``
        (default) balances deaths: ``death_rate * initial_population``.
    failure_round / failure_fraction:
        Optional one-off failure: at ``failure_round``, each agent is killed
        independently with probability ``failure_fraction``.
    lazy:
        Use lazy walks (stay put with probability 1/2).
    dynamics:
        Optional dynamic-topology spec (anything
        :func:`repro.scenarios.resolve_dynamics` accepts), sharing the
        failure semantics of the protocol kernels.
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
        lazy: bool = False,
        dynamics=None,
    ) -> None:
        if protocol not in AGENT_PROTOCOLS:
            known = ", ".join(AGENT_PROTOCOLS)
            raise ValueError(
                f"unknown agent protocol {protocol!r}; supported: {known}"
            )
        if not 0.0 <= death_rate < 1.0:
            raise ValueError("death_rate must lie in [0, 1)")
        if not 0.0 <= failure_fraction <= 1.0:
            raise ValueError("failure_fraction must lie in [0, 1]")
        if agent_density <= 0:
            raise ValueError("agent_density must be positive")
        self.protocol = protocol
        self.agent_density = float(agent_density)
        self.death_rate = float(death_rate)
        self.birth_rate = birth_rate
        self.failure_round = failure_round
        self.failure_fraction = float(failure_fraction)
        self.lazy = bool(lazy)
        self.dynamics = _resolve_dynamics(dynamics)

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        source: int,
        *,
        seed=None,
        max_rounds: Optional[int] = None,
    ) -> DynamicAgentsResult:
        """Run one trial until completion or budget exhaustion."""
        return self.run_batch(graph, source, seeds=[seed], max_rounds=max_rounds)[0]

    def run_batch(
        self,
        graph: Graph,
        source: int,
        *,
        seeds: Sequence,
        max_rounds: Optional[int] = None,
    ) -> List[DynamicAgentsResult]:
        """Run ``len(seeds)`` independent trials through one shared round loop.

        Trial ``t`` draws exclusively from ``seeds[t]`` with shapes that
        depend only on its own history, so each element of the returned list
        is identical to what :meth:`run` would produce for that seed alone.
        """
        if not (0 <= source < graph.num_vertices):
            raise GraphError("source vertex out of range")
        if not graph.is_connected():
            raise GraphError("the agent protocols are defined on connected graphs")
        seeds = list(seeds)
        if not seeds:
            raise ValueError("need at least one trial seed")

        n = graph.num_vertices
        num_trials = len(seeds)
        initial = max(1, int(round(self.agent_density * n)))
        births_per_round = (
            float(self.birth_rate)
            if self.birth_rate is not None
            else self.death_rate * initial
        )
        budget = int(max_rounds) if max_rounds is not None else max(1024, 400 * n)
        runtime = (
            DynamicsRuntime(self.dynamics, graph) if self.dynamics is not None else None
        )

        # Stationary placement via uniform directed-slot sampling (picking a
        # random edge endpoint slot is exactly deg(v) / 2|E|).
        slot_sources = graph.slot_sources()

        trials = [_TrialState(make_rng(seed), initial) for seed in seeds]
        capacity = initial
        positions = np.zeros((num_trials, capacity), dtype=np.int64)
        alive = np.ones((num_trials, capacity), dtype=bool)
        agent_informed = np.zeros((num_trials, capacity), dtype=bool)
        # Slot-0 write sink, as in the kernels: scatters index the flat
        # buffer with ``flat_index * mask`` instead of extracting indices.
        vertex_flat = np.zeros(num_trials * n + 1, dtype=bool)
        vertex_informed = vertex_flat[1:].reshape(num_trials, n)
        # Meet-exchange: the source holds the rumor for its first visitor.
        source_still_informs = np.zeros(num_trials, dtype=bool)

        for t, state in enumerate(trials):
            draws = state.gen.random(initial)
            slots = np.minimum(
                (draws * slot_sources.size).astype(np.int64), slot_sources.size - 1
            )
            positions[t] = slot_sources[slots]
        agent_informed[...] = positions == source
        if self.protocol == "meet-exchange":
            source_still_informs[...] = ~agent_informed.any(axis=1)
        else:
            vertex_informed[:, source] = True

        def informed_vertex_count(t: int) -> int:
            if self.protocol == "meet-exchange":
                return 1  # kernel convention: only the source "stores" it
            return int(np.count_nonzero(vertex_informed[t]))

        def is_complete(t: int) -> bool:
            if self.protocol == "meet-exchange":
                alive_t = alive[t]
                return bool(alive_t.any() and agent_informed[t][alive_t].all())
            return int(np.count_nonzero(vertex_informed[t])) == n

        def record(t: int) -> None:
            state = trials[t]
            state.population_history.append(int(np.count_nonzero(alive[t])))
            state.informed_vertex_history.append(informed_vertex_count(t))
            state.informed_agent_history.append(
                int(np.count_nonzero(agent_informed[t] & alive[t]))
            )

        active = [t for t in range(num_trials)]
        for t in active:
            record(t)
            if is_complete(t):
                trials[t].broadcast_time = 0
        active = [t for t in active if trials[t].broadcast_time is None]

        # Per-round rectangular draw buffers, regrown with capacity.
        death_draws = np.empty((num_trials, capacity))
        walk_draws = np.empty((num_trials, capacity))
        lazy_draws = np.empty((num_trials, capacity)) if self.lazy else None
        callee_draws = (
            np.empty((num_trials, n)) if self.protocol == "hybrid-ppull-visitx" else None
        )

        round_index = 0
        while active and round_index < budget:
            round_index += 1
            slot_active, vertex_active = (
                runtime.round_masks(round_index) if runtime is not None else (None, None)
            )

            # --- per-trial draws (shapes depend only on the trial's own
            # history, which keeps every trial a pure function of its seed) ---
            births: dict = {}
            for t in active:
                state = trials[t]
                cap = state.capacity
                state.gen.random(out=death_draws[t, :cap])
                if self.failure_round is not None and round_index == self.failure_round:
                    failure = state.gen.random(cap)
                    dies = alive[t, :cap] & (
                        (death_draws[t, :cap] < self.death_rate)
                        | (failure < self.failure_fraction)
                    )
                else:
                    dies = alive[t, :cap] & (death_draws[t, :cap] < self.death_rate)
                state.total_deaths += int(np.count_nonzero(dies))
                alive[t, :cap] &= ~dies

                num_births = (
                    int(state.gen.poisson(births_per_round)) if births_per_round > 0 else 0
                )
                if num_births:
                    free = np.flatnonzero(~alive[t, :cap])
                    if free.size < num_births:
                        grow = max(num_births - free.size, cap // 2, 8)
                        state.capacity = cap = cap + grow
                        if cap > capacity:
                            pad = cap - capacity
                            positions = np.pad(positions, ((0, 0), (0, pad)))
                            alive = np.pad(alive, ((0, 0), (0, pad)))
                            agent_informed = np.pad(agent_informed, ((0, 0), (0, pad)))
                            death_draws = np.pad(death_draws, ((0, 0), (0, pad)))
                            walk_draws = np.pad(walk_draws, ((0, 0), (0, pad)))
                            if lazy_draws is not None:
                                lazy_draws = np.pad(lazy_draws, ((0, 0), (0, pad)))
                            capacity = cap
                        free = np.flatnonzero(~alive[t, :cap])
                    birth_slots = free[:num_births]
                    place = state.gen.random(num_births)
                    place_slots = np.minimum(
                        (place * slot_sources.size).astype(np.int64),
                        slot_sources.size - 1,
                    )
                    positions[t, birth_slots] = slot_sources[place_slots]
                    alive[t, birth_slots] = True
                    agent_informed[t, birth_slots] = False
                    state.total_births += num_births
                    births[t] = birth_slots
                state.gen.random(out=walk_draws[t, :cap])
                if lazy_draws is not None:
                    state.gen.random(out=lazy_draws[t, :cap])
                if callee_draws is not None:
                    state.gen.random(out=callee_draws[t])

            rows = np.asarray(active, dtype=np.int64)
            informed_before = agent_informed[rows] & alive[rows]

            # --- hybrid: push-pull sub-round on the vertices ----------------
            if self.protocol == "hybrid-ppull-visitx":
                self._push_pull_subround(
                    graph, rows, callee_draws, vertex_flat, vertex_informed,
                    slot_active,
                )

            # --- walk step (vectorized across the active trials) ------------
            pos = positions[rows]
            degs = graph.degrees[pos]
            offsets = np.minimum(
                (walk_draws[rows] * degs).astype(np.int64), degs - 1
            )
            flat_slots = graph.indptr[pos] + offsets
            sampled = graph.indices[flat_slots]
            if slot_active is not None:
                blocked = ~slot_active[flat_slots]
                np.copyto(sampled, pos, where=blocked)
            if lazy_draws is not None:
                np.copyto(sampled, pos, where=lazy_draws[rows] < 0.5)
            np.copyto(sampled, pos, where=~alive[rows])
            positions[rows] = sampled

            vertex_ok = vertex_active[sampled] if vertex_active is not None else None

            if self.protocol == "meet-exchange":
                self._meet_subround(
                    graph, rows, sampled, informed_before, agent_informed, alive,
                    source, source_still_informs, vertex_ok,
                )
            else:
                # Visit-exchange rules against the shared informed-vertex set.
                flat_pos = rows[:, None] * n + 1 + sampled
                carriers = informed_before
                if vertex_ok is not None:
                    carriers = carriers & vertex_ok
                vertex_flat[flat_pos * carriers] = True
                learned = vertex_flat[flat_pos]
                if vertex_ok is not None:
                    learned = learned & vertex_ok
                agent_informed[rows] = agent_informed[rows] | (learned & alive[rows])

            # --- record & retire -------------------------------------------
            finished = []
            for t in active:
                record(t)
                trials[t].rounds_executed = round_index
                if is_complete(t):
                    trials[t].broadcast_time = round_index
                    finished.append(t)
            active = [t for t in active if t not in finished]

        return [
            DynamicAgentsResult(
                graph_name=graph.name,
                num_vertices=n,
                initial_agents=initial,
                broadcast_time=state.broadcast_time,
                completed=state.broadcast_time is not None,
                rounds_executed=state.rounds_executed,
                population_history=state.population_history,
                informed_vertex_history=state.informed_vertex_history,
                total_births=state.total_births,
                total_deaths=state.total_deaths,
                protocol=self.protocol,
                informed_agent_history=state.informed_agent_history,
            )
            for state in trials
        ]

    # ------------------------------------------------------------------
    # protocol sub-rounds
    # ------------------------------------------------------------------
    def _push_pull_subround(
        self, graph, rows, callee_draws, vertex_flat, vertex_informed, slot_active,
    ) -> None:
        """One push-pull exchange of every vertex (the hybrid's first half)."""
        n = graph.num_vertices
        draws = callee_draws[rows]
        degs = graph.degrees[None, :]
        offsets = np.minimum((draws * degs).astype(np.int64), degs - 1)
        flat_slots = graph.indptr[:-1][None, :] + offsets
        callees = graph.indices[flat_slots]
        ok = slot_active[flat_slots] if slot_active is not None else None
        caller_informed = vertex_informed[rows]
        callee_flat = rows[:, None] * n + 1 + callees
        callee_informed = vertex_flat[callee_flat]
        push_mask = caller_informed & ~callee_informed
        pull_mask = ~caller_informed & callee_informed
        if ok is not None:
            push_mask &= ok
            pull_mask &= ok
        vertex_flat[callee_flat * push_mask] = True
        vertex_informed[rows] = vertex_informed[rows] | pull_mask

    def _meet_subround(
        self, graph, rows, sampled, informed_before, agent_informed, alive,
        source, source_still_informs, vertex_ok,
    ) -> None:
        """Source hand-off plus meetings (only agents store the rumor)."""
        n = graph.num_vertices
        # The source hands the rumor to its first alive visitor(s); a crashed
        # source informs nobody (vertex_ok already encodes its state).
        for i, t in enumerate(rows.tolist()):
            if not source_still_informs[t]:
                continue
            at_source = (sampled[i] == source) & alive[t]
            if vertex_ok is not None:
                at_source &= vertex_ok[i]
            if at_source.any():
                agent_informed[t] |= at_source
                source_still_informs[t] = False
        # Meetings: vertices holding a previously informed alive agent inform
        # every alive agent there (crashed vertices host no meetings).
        meeting_flat = np.zeros(rows.size * n + 1, dtype=bool)
        local_flat = np.arange(rows.size, dtype=np.int64)[:, None] * n + 1 + sampled
        carriers = informed_before
        if vertex_ok is not None:
            carriers = carriers & vertex_ok
        meeting_flat[local_flat * carriers] = True
        met = meeting_flat[local_flat]
        if vertex_ok is not None:
            met = met & vertex_ok
        agent_informed[rows] = agent_informed[rows] | (met & alive[rows])


class DynamicVisitExchange(DynamicAgentsSimulation):
    """Visit-exchange whose agent population churns over time.

    The original entry point of this module, now a thin wrapper over
    :class:`DynamicAgentsSimulation` with ``protocol="visit-exchange"``; see
    that class for the parameters.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(protocol="visit-exchange", **kwargs)
