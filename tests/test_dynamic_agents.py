"""Tests for the dynamic-population extension (repro.extensions.dynamic_agents)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import simulate
from repro.core.batch import run_batch
from repro.core.kernels import VisitExchangeKernel, batch_generator
from repro.core.kernels.agent import AgentChurn
from repro.extensions import DynamicAgentsSimulation
from repro.graphs import GraphError, complete_graph, double_star, random_regular_graph, star


class TestValidation:
    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            DynamicAgentsSimulation(death_rate=1.0)
        with pytest.raises(ValueError):
            DynamicAgentsSimulation(failure_fraction=1.5)
        with pytest.raises(ValueError):
            DynamicAgentsSimulation(agent_density=0)
        with pytest.raises(ValueError):
            DynamicAgentsSimulation(protocol="push")  # not an agent protocol

    def test_negative_birth_rate_rejected(self):
        with pytest.raises(ValueError, match="birth_rate"):
            DynamicAgentsSimulation(birth_rate=-1.0)

    def test_failure_round_before_round_one_rejected(self):
        for failure_round in (0, -3):
            with pytest.raises(ValueError, match="failure_round"):
                DynamicAgentsSimulation(failure_round=failure_round, failure_fraction=0.5)

    def test_births_without_deaths_rejected(self):
        # The population would grow without bound; no slot capacity fits it.
        with pytest.raises(ValueError, match="without bound"):
            DynamicAgentsSimulation(death_rate=0.0, birth_rate=2.0)

    def test_kernels_validate_the_same_parameters(self, rng):
        graph = random_regular_graph(32, 4, rng)
        with pytest.raises(ValueError, match="birth_rate"):
            run_batch("meet-exchange", graph, 0, seeds=[0], birth_rate=-1.0)

    def test_out_of_range_source_rejected(self):
        with pytest.raises(GraphError):
            DynamicAgentsSimulation().run(complete_graph(10), 99, seed=0)


AGENT_PROTOCOLS = ["visit-exchange", "meet-exchange", "hybrid-ppull-visitx"]


class TestZeroChurnMatchesStaticProtocol:
    """With churn off, the extension runs the plain kernels: every trial is
    bit-identical to ``simulate`` for the same seed."""

    @pytest.mark.parametrize("protocol", AGENT_PROTOCOLS)
    @pytest.mark.parametrize("family", ["regular", "double-star"])
    def test_zero_churn_is_bit_identical_to_simulate(self, protocol, family):
        if family == "regular":
            graph, source = random_regular_graph(96, 8, np.random.default_rng(0)), 0
        else:
            graph, source = double_star(32), 2
        dynamic = DynamicAgentsSimulation(
            protocol=protocol, death_rate=0.0, birth_rate=0.0
        )
        for seed in range(4):
            result = dynamic.run(graph, source, seed=seed)
            static = simulate(protocol, graph, source=source, seed=seed)
            assert result.completed and static.completed
            assert result.broadcast_time == static.broadcast_time
            assert result.informed_vertex_history == static.informed_vertex_history
            assert result.informed_agent_history == static.informed_agent_history
            assert result.total_births == 0 and result.total_deaths == 0
            assert result.population_history == [result.initial_agents] * (
                result.rounds_executed + 1
            )

    def test_meet_exchange_on_bipartite_graph_uses_lazy_walks(self):
        """Regression: the double star is bipartite, so meet-exchange walks
        must be lazy (Section 3).  Non-lazy walks never complete there."""
        graph = double_star(32)
        dynamic = DynamicAgentsSimulation(
            protocol="meet-exchange", death_rate=0.0, birth_rate=0.0
        )
        for seed in range(4):
            result = dynamic.run(graph, 2, seed=seed, max_rounds=5000)
            assert result.completed
            static = simulate("meet-exchange", graph, source=2, seed=seed)
            assert result.broadcast_time == static.broadcast_time


class TestChurn:
    def test_population_stays_near_initial_with_balanced_churn(self, rng):
        graph = random_regular_graph(100, 10, rng)
        result = DynamicAgentsSimulation(death_rate=0.05).run(
            graph, 0, seed=3, max_rounds=200
        )
        assert result.total_deaths > 0
        assert result.total_births > 0
        mean_population = np.mean(result.population_history)
        assert 0.5 * result.initial_agents < mean_population < 1.5 * result.initial_agents

    def test_broadcast_still_completes_under_churn(self, rng):
        graph = random_regular_graph(128, 12, rng)
        result = DynamicAgentsSimulation(death_rate=0.05).run(graph, 0, seed=4)
        assert result.completed
        # Still roughly logarithmic: far below anything linear in n.
        assert result.broadcast_time < 128

    def test_modest_churn_costs_only_a_constant_factor(self, rng):
        graph = random_regular_graph(128, 12, rng)
        static_times = [
            DynamicAgentsSimulation(death_rate=0.0, birth_rate=0.0)
            .run(graph, 0, seed=s)
            .broadcast_time
            for s in range(4)
        ]
        churn_times = [
            DynamicAgentsSimulation(death_rate=0.05).run(graph, 0, seed=s).broadcast_time
            for s in range(4)
        ]
        assert np.mean(churn_times) < 4 * np.mean(static_times) + 10

    def test_churn_costs_only_a_constant_factor_at_scale(self, regular_512):
        static = np.mean([
            DynamicAgentsSimulation(death_rate=0.0, birth_rate=0.0)
            .run(regular_512, 0, seed=s)
            .broadcast_time
            for s in range(3)
        ])
        churned = np.mean([
            DynamicAgentsSimulation(death_rate=0.05).run(regular_512, 0, seed=s).broadcast_time
            for s in range(3)
        ])
        assert churned < 4 * static + 10

    def test_histories_have_matching_lengths(self, rng):
        graph = random_regular_graph(64, 8, rng)
        result = DynamicAgentsSimulation(death_rate=0.02).run(graph, 0, seed=5)
        assert len(result.population_history) == len(result.informed_vertex_history)
        assert len(result.population_history) == result.rounds_executed + 1


class TestFailureInjection:
    def test_mass_failure_kills_agents_but_broadcast_recovers(self, rng):
        graph = random_regular_graph(128, 12, rng)
        result = DynamicAgentsSimulation(
            death_rate=0.02, failure_round=3, failure_fraction=0.8
        ).run(graph, 0, seed=6)
        # The failure is visible in the population history...
        population_before = result.population_history[2]
        population_after = result.population_history[3]
        assert population_after < 0.5 * population_before
        # ...but births replenish the population and the broadcast completes.
        assert result.completed
        assert result.population_history[-1] > population_after

    def test_recovery_from_mass_failure_at_scale(self, regular_512):
        result = DynamicAgentsSimulation(
            death_rate=0.05, failure_round=5, failure_fraction=0.8
        ).run(regular_512, 0, seed=9)
        assert result.completed
        assert result.broadcast_time < 20 * math.log2(regular_512.num_vertices)

    def test_failure_without_births_still_completes_if_some_agents_survive(self, rng):
        graph = complete_graph(64)
        result = DynamicAgentsSimulation(
            death_rate=0.0, birth_rate=0.0, failure_round=2, failure_fraction=0.9
        ).run(graph, 0, seed=7)
        assert result.completed
        assert result.min_population >= 1


class TestBatchedExecution:
    """The rebuilt extension runs many trials through one shared round loop;
    per-trial results must be pure functions of their seeds."""

    def test_run_batch_matches_individual_runs(self, rng):
        graph = random_regular_graph(96, 8, rng)
        sim = DynamicAgentsSimulation(death_rate=0.04)
        batch = sim.run_batch(graph, 0, seeds=[11, 22, 33])
        for seed, from_batch in zip([11, 22, 33], batch):
            solo = sim.run(graph, 0, seed=seed)
            assert from_batch.broadcast_time == solo.broadcast_time
            assert from_batch.population_history == solo.population_history
            assert from_batch.informed_vertex_history == solo.informed_vertex_history
            assert from_batch.informed_agent_history == solo.informed_agent_history
            assert from_batch.total_births == solo.total_births
            assert from_batch.total_deaths == solo.total_deaths

    def test_empty_seed_list_rejected(self, rng):
        graph = complete_graph(16)
        with pytest.raises(ValueError):
            DynamicAgentsSimulation().run_batch(graph, 0, seeds=[])


class TestAllAgentProtocols:
    """Churn is available for every agent-based protocol, not just
    visit-exchange."""

    @pytest.mark.parametrize(
        "protocol", ["visit-exchange", "meet-exchange", "hybrid-ppull-visitx"]
    )
    def test_completes_under_churn(self, protocol, rng):
        graph = random_regular_graph(96, 8, rng)
        result = DynamicAgentsSimulation(protocol=protocol, death_rate=0.03).run(
            graph, 0, seed=9
        )
        assert result.completed
        assert result.protocol == protocol
        assert result.total_births > 0 and result.total_deaths > 0

    def test_meet_exchange_completion_is_all_alive_agents_informed(self, rng):
        graph = complete_graph(48)
        result = DynamicAgentsSimulation(
            protocol="meet-exchange", death_rate=0.02
        ).run(graph, 0, seed=12)
        assert result.completed
        # The final round's alive population is fully informed.
        assert result.informed_agent_history[-1] == result.population_history[-1]

    def test_meet_exchange_rumor_goes_extinct_under_heavy_churn(self):
        """Half the agents die every round: the first informed agents die
        before meeting anyone, so no agent holds the rumor ever again."""
        graph = random_regular_graph(64, 4, np.random.default_rng(1))
        sim = DynamicAgentsSimulation(
            protocol="meet-exchange", death_rate=0.5, agent_density=0.25
        )
        for seed in range(4):
            result = sim.run(graph, 0, seed=seed, max_rounds=200)
            assert not result.completed
            assert result.broadcast_time is None
            assert result.rounds_executed == 200
            history = result.informed_agent_history
            first_informed = next(i for i, count in enumerate(history) if count)
            extinct = history.index(0, first_informed)
            assert set(history[extinct:]) == {0}
            assert result.population_history[-1] > 0

    def test_hybrid_is_faster_than_agents_alone_on_double_star(self, rng):
        """The push-pull half keeps informing during agent churn, so the
        hybrid cannot be drastically slower than plain dynamic agents."""
        graph = double_star(100)
        agents = [
            DynamicAgentsSimulation(protocol="visit-exchange", death_rate=0.02)
            .run(graph, 2, seed=s)
            .broadcast_time
            for s in range(3)
        ]
        hybrid = [
            DynamicAgentsSimulation(protocol="hybrid-ppull-visitx", death_rate=0.02)
            .run(graph, 2, seed=s)
            .broadcast_time
            for s in range(3)
        ]
        assert np.mean(hybrid) < 3 * np.mean(agents) + 10


class TestChurnPlusTopologyDynamics:
    """Agent churn composes with the dynamic-topology layer."""

    def test_completes_under_combined_failures(self, rng):
        graph = random_regular_graph(96, 8, rng)
        result = DynamicAgentsSimulation(
            death_rate=0.02,
            dynamics={"kind": "bernoulli-edges", "rate": 0.3, "seed": 5},
        ).run(graph, 0, seed=3)
        assert result.completed

    def test_edge_failures_slow_spreading_under_churn(self, rng):
        graph = random_regular_graph(128, 12, rng)
        plain = [
            DynamicAgentsSimulation(death_rate=0.02).run(graph, 0, seed=s).broadcast_time
            for s in range(4)
        ]
        failing = [
            DynamicAgentsSimulation(
                death_rate=0.02,
                dynamics={"kind": "bernoulli-edges", "rate": 0.5, "seed": 6},
            )
            .run(graph, 0, seed=s)
            .broadcast_time
            for s in range(4)
        ]
        assert np.mean(failing) > np.mean(plain)

    def test_severed_bridge_strands_the_far_star(self, rng):
        """With the double-star bridge permanently down, churned agents can
        never reach the second star: the run must not complete."""
        graph = double_star(60)
        result = DynamicAgentsSimulation(
            death_rate=0.02,
            dynamics={"kind": "static", "down_edges": [(0, 1)]},
        ).run(graph, 2, seed=4, max_rounds=400)
        assert not result.completed
        assert max(result.informed_vertex_history) <= graph.num_vertices // 2


class TestChurnKernelAxis:
    """Churn lives in the agent kernels, reachable from any run_batch call."""

    @pytest.mark.parametrize("protocol", AGENT_PROTOCOLS)
    def test_run_batch_reports_population_through_metadata(self, protocol, rng):
        graph = random_regular_graph(64, 6, rng)
        batch = run_batch(
            protocol, graph, 0, seeds=[1, 2], death_rate=0.05, record_history=True
        )
        for t, meta in enumerate(batch.metadata):
            history = meta["population_history"]
            assert len(history) == batch.rounds_executed[t] + 1
            assert history[0] == batch.num_agents == 64
            assert meta["births"] > 0 and meta["deaths"] > 0
            # Population bookkeeping balances round by round.
            assert history[-1] == history[0] + meta["births"] - meta["deaths"]

    @pytest.mark.parametrize("protocol", AGENT_PROTOCOLS)
    def test_churn_forces_dense(self, protocol, rng):
        graph = random_regular_graph(64, 6, rng)
        batch = run_batch(protocol, graph, 0, seeds=[0], frontier="sparse", death_rate=0.05)
        assert batch.frontier_resolved == "dense"

    def test_newborns_are_placed_from_the_stationary_distribution(self):
        """On a star the stationary distribution puts half the mass on the
        centre; uniform placement would put almost every newborn on a leaf.
        Non-lazy walks swap centre and leaves, so after one round the centre
        holds the agents that stood on a leaf before it."""
        trials = 20
        kernel = VisitExchangeKernel(death_rate=0.9)
        kernel.initialize(star(64), 1, [batch_generator(seed) for seed in range(trials)])
        kernel.step(trials)
        alive = kernel._alive
        at_centre = np.count_nonzero((kernel.positions == 0) & alive)
        assert 0.4 < at_centre / np.count_nonzero(alive) < 0.6

    def test_zero_churn_kernel_allocates_no_churn_state(self, rng):
        graph = random_regular_graph(64, 6, rng)
        batch = run_batch("visit-exchange", graph, 0, seeds=[0], death_rate=0.0)
        assert "population_history" not in batch.metadata[0]

    def test_full_slot_capacity_raises_naming_the_capacity(self, rng, monkeypatch):
        # Shrink the capacity to the initial population so the first birth
        # into a full population has nowhere to go.
        monkeypatch.setattr(AgentChurn, "capacity", lambda self, initial: initial)
        graph = random_regular_graph(32, 4, rng)
        with pytest.raises(RuntimeError, match="capacity 32"):
            run_batch("visit-exchange", graph, 0, seeds=[0], death_rate=1e-9, birth_rate=5.0)
