"""Multiple rumors disseminated in parallel by one agent population.

Section 1 of the paper motivates the stationary-start assumption with exactly
this setting: "several pieces of information (or rumors) are generated
frequently and distributed in parallel over time by the same set of agents,
which execute perpetual independent random walks."  This module runs that
setting for the visit-exchange mechanics: a single population of walking
agents carries many rumors, each injected at its own (round, source) pair,
and the run records a per-rumor broadcast time.

Under visit-exchange rumors never interact — an exchange hands over every
rumor a party knows — so ``r`` rumors of one trial are ``r`` visit-exchange
processes on the *same* walk.  :class:`MultiRumorVisitExchange` is a thin
front end over :func:`~repro.core.batch.run_batch`: every (trial, rumor) pair
is one row of a single ``"visit-exchange"`` batch, the rows of a trial share
the trial's seed (and so its walk, which never reads the source), and each
row carries its rumor's injection through the kernel's ``injections=``
argument.  A rumor injected in round 0 is exactly ``simulate("visit-exchange",
graph, source, seed=seed)``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.batch import run_batch
from ..core.rng import make_rng
from ..graphs.graph import Graph

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
    ``i`` (from a previous round or this one) learn it.  A rumor injected in
    round ``r`` informs its source after the walk step of round ``r``.

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
        return self.run_batch(graph, [injections], seeds=[seed], max_rounds=max_rounds)[0]

    def run_batch(
        self,
        graph: Graph,
        injections: Sequence[Sequence[RumorInjection]],
        *,
        seeds: Sequence,
        max_rounds: Optional[int] = None,
    ) -> List[MultiRumorResult]:
        """Run one trial per seed, ``injections[t]`` being trial ``t``'s rumors.

        All rumors of all trials run as one batch (default budget
        ``max(1024, 200 n)`` rounds, counted from round 0).  Each trial is a
        pure function of its seed and rumors: every element equals what
        :meth:`run` produces for that trial alone.
        """
        if len(injections) != len(seeds):
            raise ValueError("need exactly one injection list per seed")
        if any(not rumors for rumors in injections):
            raise ValueError("need at least one rumor injection")
        # Every row of a trial draws from its own copy of the trial's
        # generator, so the trial's rows walk identically.
        gens, pairs = [], []
        for seed, rumors in zip(seeds, injections):
            gen = make_rng(seed)
            for rumor in rumors:
                gens.append(copy.deepcopy(gen))
                pairs.append((rumor.round_index, rumor.source))
        if max_rounds is None:
            max_rounds = max(1024, 200 * graph.num_vertices)
        batch = run_batch(
            "visit-exchange",
            graph,
            seeds=gens,
            max_rounds=max_rounds,
            injections=pairs,
            agent_density=self.agent_density,
            num_agents=self.explicit_num_agents,
            lazy=self.lazy,
        )
        results, start = [], 0
        for rumors in injections:
            rows = slice(start, start + len(rumors))
            start += len(rumors)
            results.append(
                MultiRumorResult(
                    graph_name=graph.name,
                    num_vertices=graph.num_vertices,
                    num_agents=batch.num_agents,
                    injections=list(rumors),
                    completion_rounds=[
                        int(t) if t >= 0 else None for t in batch.broadcast_times[rows]
                    ],
                    rounds_executed=int(batch.rounds_executed[rows].max()),
                )
            )
        return results
