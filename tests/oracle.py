"""Reference implementation of the six protocols: one scalar loop per trial.

The vectorized kernels of :mod:`repro.core.kernels` are the package's only
execution path.  This module is an *independent* implementation of the same
six round transitions (Section 3 of the paper, plus PULL and the hybrid),
written as plain per-trial Python loops over the active boundary — the
informed frontier, the uninformed list, the agent population — with its own
random stream.  ``test_oracle.py`` holds the kernels to it statistically:
the two share no code and no draws, so agreement in distribution checks the
kernels' semantics rather than their self-consistency.

Multi-rumor visit-exchange (:func:`multi_rumor_completion_rounds`) is
restated as the setting Section 1 describes: one population walks, and a
loop over the rumors applies the visit rule to each rumor's own vertex and
agent sets — where the package runs every rumor as its own kernel row.

Agent churn (Section 9: agents die and are born) is restated here too, over
a population list that shrinks and grows — where the kernels keep an alive
mask over fixed slots.  Each round, before the walk step, every agent dies
with probability ``death_rate`` (and, in round ``failure_round``, with
probability ``failure_fraction``); then a Poisson number of newborns joins
at stationary vertices, uninformed.

Push from the centre of a star is the coupon-collector problem (Lemma 2(a)),
so :func:`expected_collection_time` gives its exact expected broadcast time.

Stream family
-------------
Each trial draws from a splitmix64 stream seeded through
``np.random.SeedSequence`` and consumes one draw per *active* position per
round, so results match the kernels in distribution, never sample for
sample.  Offsets use the kernels' 32-bit fixed-point multiply-shift
(``(u32 * bound) >> 32``), so the sampling bias bound matches too.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "AGENT_PROTOCOLS",
    "PROTOCOLS",
    "broadcast_time",
    "expected_collection_time",
    "harmonic_number",
    "multi_rumor_completion_rounds",
]

#: Protocols with a reference runner — the full kernel registry.
PROTOCOLS = (
    "push",
    "pull",
    "push-pull",
    "visit-exchange",
    "meet-exchange",
    "hybrid-ppull-visitx",
)

#: Protocols with an agent population, and so with churn.
AGENT_PROTOCOLS = ("visit-exchange", "meet-exchange", "hybrid-ppull-visitx")

_MASK = (1 << 64) - 1


class _Stream:
    """splitmix64 over Python ints (wrapping modulo 2**64)."""

    def __init__(self, seed) -> None:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(int(seed))
        self.state = int(seed.generate_state(1, np.uint64)[0])

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def pick(self, bound: int) -> int:
        """Uniform offset in ``[0, bound)`` (32-bit fixed point)."""
        return ((self.next_u64() >> 32) * bound) >> 32

    def coin(self) -> bool:
        return bool(self.next_u64() >> 63)

    def uniform(self) -> float:
        """Uniform double in ``[0, 1)`` (53-bit)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def poisson(self, rate: float) -> int:
        """Poisson count by Knuth's product method, in chunks of rate <= 30
        (a sum of independent Poissons is Poisson; keeps ``exp(-rate)``
        far from underflow)."""
        total = 0
        while rate > 0:
            chunk = min(rate, 30.0)
            rate -= chunk
            limit, product = math.exp(-chunk), self.uniform()
            while product >= limit:
                total += 1
                product *= self.uniform()
        return total


class _Graph:
    """CSR adjacency as Python lists (fast scalar indexing)."""

    def __init__(self, graph) -> None:
        self.n = graph.num_vertices
        self.indptr = graph.indptr.tolist()
        self.indices = graph.indices.tolist()
        self.slot_sources = graph.slot_sources().tolist()

    def degree(self, v: int) -> int:
        return self.indptr[v + 1] - self.indptr[v]

    def neighbor(self, stream: _Stream, u: int) -> int:
        return self.indices[self.indptr[u] + stream.pick(self.degree(u))]

    def neighbors(self, v: int):
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


def _place_agents(g: _Graph, stream: _Stream, num_agents: int, one_per_vertex: bool):
    """Initial agent positions: stationary via directed-slot sampling."""
    if one_per_vertex:
        return list(range(g.n))
    slots = len(g.slot_sources)
    return [g.slot_sources[stream.pick(slots)] for _ in range(num_agents)]


class _Churn:
    """Churn parameters; :meth:`round` edits the population lists in place."""

    def __init__(self, death_rate, birth_rate, failure_round, failure_fraction, initial):
        self.death_rate = death_rate
        self.birth_rate = death_rate * initial if birth_rate is None else birth_rate
        self.failure_round = failure_round
        self.failure_fraction = failure_fraction

    def round(self, g: _Graph, stream: _Stream, t: int, pos, info, newborn) -> None:
        """Remove the round's dead, then append the newborns (``info`` = newborn)."""
        failing = t == self.failure_round
        survivors = []
        for a in range(len(pos)):
            dies = stream.uniform() < self.death_rate
            if failing and stream.uniform() < self.failure_fraction:
                dies = True
            if not dies:
                survivors.append(a)
        pos[:] = [pos[a] for a in survivors]
        info[:] = [info[a] for a in survivors]
        for _ in range(stream.poisson(self.birth_rate)):
            pos.append(g.slot_sources[stream.pick(len(g.slot_sources))])
            info.append(newborn)


def _walk_step(g: _Graph, stream: _Stream, pos, lazy: bool) -> None:
    """Advance every agent one step (lazy: extra coin, stay on heads)."""
    for a, u in enumerate(pos):
        v = g.neighbor(stream, u)
        if lazy and stream.coin():
            v = u
        pos[a] = v


class _VertexFrontier:
    """Informed set plus the informed vertices that still have uninformed neighbors."""

    def __init__(self, g: _Graph, source: int) -> None:
        self.g = g
        self.informed = [False] * g.n
        self.informed[source] = True
        self.count = 1
        self.uninformed_neighbors = [g.degree(v) for v in range(g.n)]
        for w in g.neighbors(source):
            self.uninformed_neighbors[w] -= 1
        self.frontier = [source] if self.uninformed_neighbors[source] > 0 else []
        self.uninformed = [v for v in range(g.n) if v != source]

    def inform(self, v: int, newly) -> None:
        if not self.informed[v]:
            self.informed[v] = True
            self.count += 1
            newly.append(v)

    def commit(self, newly) -> None:
        """Maintain the frontier and uninformed lists after a round."""
        for v in newly:
            for w in self.g.neighbors(v):
                self.uninformed_neighbors[w] -= 1
        self.frontier = [
            v for v in self.frontier + newly if self.uninformed_neighbors[v] > 0
        ]
        self.uninformed = [v for v in self.uninformed if not self.informed[v]]

    def push_pull_round(self, stream: _Stream, newly, *, push=True, pull=True) -> None:
        """Both directions against the pre-round state (push draws first)."""
        candidates = []
        if push:
            for u in self.frontier:
                v = self.g.neighbor(stream, u)
                if not self.informed[v]:
                    candidates.append(v)
        if pull:
            for u in self.uninformed:
                if self.informed[self.g.neighbor(stream, u)]:
                    candidates.append(u)
        for v in candidates:
            self.inform(v, newly)


def _run_vertex_protocol(g, source, max_rounds, stream, *, push, pull):
    state = _VertexFrontier(g, source)
    t = 0
    while state.count < g.n and t < max_rounds:
        t += 1
        newly = []
        state.push_pull_round(stream, newly, push=push, pull=pull)
        state.commit(newly)
    return t if state.count >= g.n else None


def _run_visit_exchange(
    g, source, max_rounds, stream, num_agents, one_per_vertex, lazy, churn
):
    pos = _place_agents(g, stream, num_agents, one_per_vertex)
    vertex_informed = [False] * g.n
    vertex_informed[source] = True
    agent_informed = [p == source for p in pos]
    count = 1
    t = 0
    while count < g.n and t < max_rounds:
        t += 1
        if churn:
            churn.round(g, stream, t, pos, agent_informed, False)
        _walk_step(g, stream, pos, lazy)
        # Carriers (informed in a previous round) inform their vertex; then
        # uninformed agents learn from any now-informed vertex.
        for a, v in enumerate(pos):
            if agent_informed[a] and not vertex_informed[v]:
                vertex_informed[v] = True
                count += 1
        for a, v in enumerate(pos):
            if not agent_informed[a] and vertex_informed[v]:
                agent_informed[a] = True
    return t if count >= g.n else None


def _run_meet_exchange(
    g, source, max_rounds, stream, num_agents, one_per_vertex, lazy, churn
):
    pos = _place_agents(g, stream, num_agents, one_per_vertex)
    # inf_round[a]: round in which agent a was informed (None = never); an
    # agent spreads only when informed in an earlier round ("no chaining").
    inf_round = [0 if p == source else None for p in pos]
    source_informs = all(r is None for r in inf_round)

    def complete() -> bool:
        # Every agent alive now is informed, and the population is not extinct.
        return bool(pos) and None not in inf_round

    t = 0
    while not complete() and t < max_rounds:
        t += 1
        if churn:
            churn.round(g, stream, t, pos, inf_round, None)
        _walk_step(g, stream, pos, lazy)
        if source_informs:
            # The first visit to the source informs the visitors and retires
            # the source.
            for a, v in enumerate(pos):
                if v == source:
                    source_informs = False
                    if inf_round[a] is None:
                        inf_round[a] = t
        carriers = {pos[a] for a, r in enumerate(inf_round) if r is not None and r < t}
        for a, v in enumerate(pos):
            if inf_round[a] is None and v in carriers:
                inf_round[a] = t
    return t if complete() else None


def _run_hybrid(g, source, max_rounds, stream, num_agents, lazy, churn):
    pos = _place_agents(g, stream, num_agents, False)
    state = _VertexFrontier(g, source)
    agent_informed = [p == source for p in pos]
    t = 0
    while state.count < g.n and t < max_rounds:
        t += 1
        newly = []
        state.push_pull_round(stream, newly)
        if churn:
            churn.round(g, stream, t, pos, agent_informed, False)
        # Visit-exchange half over the shared informed-vertex set.
        _walk_step(g, stream, pos, lazy)
        for a, v in enumerate(pos):
            if agent_informed[a]:
                state.inform(v, newly)
        for a, v in enumerate(pos):
            if not agent_informed[a] and state.informed[v]:
                agent_informed[a] = True
        state.commit(newly)
    return t if state.count >= g.n else None


def broadcast_time(
    protocol: str,
    graph,
    source: int,
    seed,
    *,
    max_rounds: int = 100_000,
    agent_density: float = 1.0,
    num_agents: Optional[int] = None,
    lazy: Optional[bool] = None,
    one_agent_per_vertex: bool = False,
    death_rate: float = 0.0,
    birth_rate: Optional[float] = None,
    failure_round: Optional[int] = None,
    failure_fraction: float = 0.0,
) -> Optional[int]:
    """One trial's broadcast time (``None`` if the budget ran out).

    Completion means "every vertex informed", except for meet-exchange:
    "every agent informed" (under churn: every agent alive now, and at least
    one).  ``lazy=None`` enables lazy walks for meet-exchange exactly on
    bipartite graphs (Section 3) and disables them otherwise.  The churn
    arguments apply to the agent protocols only; ``birth_rate=None``
    balances deaths (``death_rate`` times the initial population).
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    g = _Graph(graph)
    stream = _Stream(seed)
    churning = death_rate > 0 or bool(birth_rate) or (
        failure_round is not None and failure_fraction > 0
    )
    if churning and protocol not in AGENT_PROTOCOLS:
        raise ValueError(f"{protocol} has no agents to churn")
    if protocol in ("push", "pull", "push-pull"):
        return _run_vertex_protocol(
            g,
            source,
            max_rounds,
            stream,
            push=protocol != "pull",
            pull=protocol != "push",
        )
    if lazy is None:
        lazy = protocol == "meet-exchange" and graph.is_bipartite()
    if num_agents is None:
        num_agents = max(1, round(agent_density * g.n))
    initial = g.n if one_agent_per_vertex else num_agents
    churn = (
        _Churn(death_rate, birth_rate, failure_round, failure_fraction, initial)
        if churning
        else None
    )
    if protocol == "visit-exchange":
        return _run_visit_exchange(
            g, source, max_rounds, stream, num_agents, one_agent_per_vertex, lazy, churn
        )
    if protocol == "meet-exchange":
        return _run_meet_exchange(
            g, source, max_rounds, stream, num_agents, one_agent_per_vertex, lazy, churn
        )
    return _run_hybrid(g, source, max_rounds, stream, num_agents, lazy, churn)


def multi_rumor_completion_rounds(
    graph,
    injections,
    seed,
    *,
    max_rounds: int = 100_000,
    agent_density: float = 1.0,
    lazy: bool = False,
):
    """One multi-rumor visit-exchange trial: per rumor, the round by which
    every vertex knows it (``None`` if the budget ran out first).

    ``injections`` holds one ``(round, source)`` pair per rumor.  All rumors
    ride one walk.  In a rumor's injection round, after the walk step, its
    source learns it; then, as every round, carriers from earlier rounds
    stamp it on the vertices they stand on and agents on stamped vertices
    learn it.
    """
    g = _Graph(graph)
    stream = _Stream(seed)
    pos = _place_agents(g, stream, max(1, round(agent_density * g.n)), False)
    vertex_knows = [[False] * g.n for _ in injections]
    agent_knows = [[False] * len(pos) for _ in injections]
    counts = [0] * len(injections)
    done = [None] * len(injections)

    def exchange(t: int) -> None:
        for i, (at, source) in enumerate(injections):
            vertex, agent = vertex_knows[i], agent_knows[i]
            if at == t:
                vertex[source] = True
                counts[i] = 1
            carriers = [a for a in range(len(pos)) if agent[a]]
            for a in carriers:
                if not vertex[pos[a]]:
                    vertex[pos[a]] = True
                    counts[i] += 1
            for a, v in enumerate(pos):
                if vertex[v]:
                    agent[a] = True
            if done[i] is None and counts[i] >= g.n:
                done[i] = t

    exchange(0)
    t = 0
    while None in done and t < max_rounds:
        t += 1
        _walk_step(g, stream, pos, lazy)
        exchange(t)
    return done


def harmonic_number(n: int) -> float:
    """Return ``H_n = sum_{i=1}^{n} 1/i`` (exact summation for moderate n)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    if n <= 10**6:
        return float(np.sum(1.0 / np.arange(1, n + 1)))
    # Asymptotic expansion for very large n.
    gamma = 0.5772156649015328606
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n**2)


def expected_collection_time(num_coupons: int) -> float:
    """Expected draws to collect all ``num_coupons`` coupons: ``n * H_n``."""
    if num_coupons < 1:
        raise ValueError("need at least one coupon")
    return num_coupons * harmonic_number(num_coupons)
