"""Tests for the dynamic-topology layer (repro.graphs.dynamic) end to end.

Covers the schedule classes themselves (purity, spec round-trips, the CLI
string form), the kernel-level failure semantics shared by all six protocols
(an interaction over an inactive edge or with an inactive vertex does not
happen), the bit-for-bit static-schedule guarantee, and observer parity: the
``on_edges_used`` accounting must report only mask-active edges and must be
identical between one batch and single runs that consume the same
per-trial generators.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import simulate
from repro.core.batch import run_batch, trial_seeds
from repro.core.kernels import KERNEL_REGISTRY
from repro.core.observers import EdgeUsageObserver, ObserverGroup
from repro.graphs import double_star, random_regular_graph
from repro.graphs.dynamic import (
    BernoulliEdgeFailures,
    ComposedSchedule,
    DynamicsRuntime,
    MarkovEdgeChurn,
    NodeCrashes,
    PeriodicLinkFlapping,
    StaticSchedule,
    TopologySchedule,
    edge_index_of,
)
from repro.graphs.graph import GraphError
from repro.scenarios import resolve_dynamics

ALL_PROTOCOLS = sorted(KERNEL_REGISTRY)


@pytest.fixture(scope="module")
def regular():
    return random_regular_graph(48, 6, np.random.default_rng(7))


def all_active(activity):
    """Whether a round is trivial: neither mask is materialized."""
    return activity.edge_state is None and activity.vertex_state is None


# ---------------------------------------------------------------------------
# Schedule semantics
# ---------------------------------------------------------------------------
class TestSchedules:
    def test_static_default_is_all_active(self, regular):
        assert all_active(StaticSchedule().activity(regular, 1))

    def test_static_down_edges_resolved_per_graph(self, regular):
        u = 0
        v = int(regular.neighbors(0)[0])
        schedule = StaticSchedule(down_edges=[(u, v)])
        activity = schedule.activity(regular, 3)
        index = int(edge_index_of(regular, [(u, v)])[0])
        assert not activity.edge_state[index]
        assert activity.edge_state.sum() == regular.num_edges - 1

    def test_bernoulli_masks_are_pure_per_round(self, regular):
        schedule = BernoulliEdgeFailures(0.3, seed=4)
        a = schedule.activity(regular, 5).edge_state
        # Different round: different mask; same round re-queried: identical.
        b = schedule.activity(regular, 6).edge_state
        c = schedule.activity(regular, 5).edge_state
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_bernoulli_rate_zero_is_all_active(self, regular):
        assert all_active(BernoulliEdgeFailures(0.0).activity(regular, 1))

    def test_node_crash_window(self, regular):
        schedule = NodeCrashes(crash_round=5, vertices=[3], duration=4)
        assert all_active(schedule.activity(regular, 4))
        for r in range(5, 9):
            state = schedule.activity(regular, r).vertex_state
            assert not state[3] and state.sum() == regular.num_vertices - 1
        assert all_active(schedule.activity(regular, 9))

    def test_permanent_crash_never_recovers(self, regular):
        schedule = NodeCrashes(crash_round=2, vertices=[1])
        assert not schedule.activity(regular, 500).vertex_state[1]

    def test_markov_churn_is_replayable(self, regular):
        schedule = MarkovEdgeChurn(fail_rate=0.2, recover_rate=0.5, seed=9)
        forward = [schedule.activity(regular, r).edge_state.copy() for r in range(1, 8)]
        # Restarting from round 1 (every rerun's access pattern) must
        # reproduce the exact same states.
        replay = [schedule.activity(regular, r).edge_state.copy() for r in range(1, 8)]
        for a, b in zip(forward, replay):
            assert np.array_equal(a, b)

    def test_flapping_is_periodic(self, regular):
        schedule = PeriodicLinkFlapping(
            period=4, down_rounds=2, edge_fraction=0.5, seed=3
        )
        for r in range(1, 5):
            a = schedule.activity(regular, r).edge_state
            b = schedule.activity(regular, r + 4).edge_state
            assert np.array_equal(a, b)
        # Some round must actually take edges down.
        downs = [schedule.activity(regular, r).edge_state.sum() for r in range(1, 5)]
        assert min(downs) < regular.num_edges

    def test_composed_schedule_intersects(self, regular):
        v = 5
        composed = ComposedSchedule(
            [
                NodeCrashes(crash_round=1, vertices=[v]),
                {"kind": "bernoulli-edges", "rate": 0.4, "seed": 2},
            ]
        )
        activity = composed.activity(regular, 2)
        assert not activity.vertex_state[v]
        assert activity.edge_state is not None

    def test_edge_index_of_rejects_non_edges(self, regular):
        missing = None
        neighbors = set(regular.neighbors(0).tolist())
        for v in range(1, regular.num_vertices):
            if v not in neighbors:
                missing = v
                break
        with pytest.raises(GraphError):
            edge_index_of(regular, [(0, missing)])

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliEdgeFailures(1.5)
        with pytest.raises(ValueError):
            NodeCrashes(crash_round=0)
        with pytest.raises(ValueError):
            PeriodicLinkFlapping(period=4, down_rounds=5)
        with pytest.raises(ValueError):
            MarkovEdgeChurn(fail_rate=0.1, recover_rate=0.0)


class TestSpecResolution:
    def test_none_and_instances_pass_through(self):
        assert resolve_dynamics(None) is None
        schedule = BernoulliEdgeFailures(0.1)
        assert resolve_dynamics(schedule) is schedule

    @pytest.mark.parametrize(
        "make_schedule",
        [
            lambda g: StaticSchedule(down_edges=[(0, int(g.neighbors(0)[0]))]),
            lambda g: BernoulliEdgeFailures(0.25, seed=3),
            lambda g: PeriodicLinkFlapping(
                period=6, down_rounds=2, edge_fraction=0.3, seed=1
            ),
            lambda g: NodeCrashes(crash_round=4, fraction=0.2, seed=2, duration=10),
            lambda g: MarkovEdgeChurn(fail_rate=0.1, recover_rate=0.6, seed=5),
        ],
    )
    def test_spec_dict_round_trips(self, make_schedule, regular):
        schedule = make_schedule(regular)
        rebuilt = resolve_dynamics(schedule.spec())
        assert type(rebuilt) is type(schedule)
        for r in (1, 3, 9):
            a, b = schedule.activity(regular, r), rebuilt.activity(regular, r)
            assert (a.edge_state is None) == (b.edge_state is None)
            if a.edge_state is not None:
                assert np.array_equal(a.edge_state, b.edge_state)
            if a.vertex_state is not None:
                assert np.array_equal(a.vertex_state, b.vertex_state)

    def test_string_form_parses(self):
        schedule = resolve_dynamics("bernoulli-edges:rate=0.2,seed=7")
        assert isinstance(schedule, BernoulliEdgeFailures)
        assert schedule.rate == 0.2 and schedule.seed == 7
        flapping = resolve_dynamics(
            "flapping:period=8,down_rounds=3,edge_fraction=0.5,random_phase=false"
        )
        assert isinstance(flapping, PeriodicLinkFlapping)
        assert flapping.random_phase is False

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dynamics kind"):
            resolve_dynamics({"kind": "meteor-strike"})
        with pytest.raises(ValueError, match="key=value"):
            resolve_dynamics("bernoulli-edges:0.2")

    def test_spec_level_dynamics_wins_over_sweep_default(self, regular):
        """A spec that pins its own schedule keeps it when a sweep-wide
        default is passed — labeled failure-rate cells must never silently
        run a different rate than their label claims.  Specs without one
        follow the default."""
        from repro.experiments.config import GraphCase, ProtocolSpec
        from repro.experiments.runner import run_trial_set

        case = GraphCase(graph=regular, source=0, size_parameter=48)
        # Permanent crash of a non-source vertex: runs under it cannot finish.
        sweep_default = NodeCrashes(crash_round=1, vertices=[regular.num_vertices - 1])
        baseline = run_trial_set(ProtocolSpec("push"), case, trials=3, base_seed=0)
        assert baseline.completion_rate == 1.0

        # No spec-level schedule -> the sweep default applies (incomplete).
        defaulted = run_trial_set(
            ProtocolSpec("push"),
            case,
            trials=3,
            base_seed=0,
            max_rounds=300,
            dynamics=sweep_default,
        )
        assert defaulted.completion_rate == 0.0

        # A pinned failure-free schedule overrides the sweep default: the
        # cell runs (and completes) exactly like the plain baseline.
        pinned = run_trial_set(
            ProtocolSpec(
                "push",
                kwargs={"dynamics": {"kind": "bernoulli-edges", "rate": 0.0, "seed": 1}},
            ),
            case,
            trials=3,
            base_seed=0,
            dynamics=sweep_default,
        )
        assert pinned.broadcast_times() == baseline.broadcast_times()

    def test_runtime_validates_mask_lengths(self, regular):
        class Bad(TopologySchedule):
            def activity(self, graph, round_index):
                from repro.graphs.dynamic import RoundActivity

                return RoundActivity(edge_state=np.ones(3, dtype=bool))

        runtime = DynamicsRuntime(Bad(), regular)
        with pytest.raises(ValueError, match="edge_state"):
            runtime.round_masks(1)


# ---------------------------------------------------------------------------
# Kernel-level failure semantics (all six protocols)
# ---------------------------------------------------------------------------
class TestKernelSemantics:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_all_kernels_complete_under_transient_failures(self, protocol, regular):
        result = run_batch(
            protocol,
            regular,
            0,
            seeds=trial_seeds(1, "dyn-complete", protocol, trials=4),
            dynamics={"kind": "bernoulli-edges", "rate": 0.3, "seed": 3},
        )
        assert result.completed.all()

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_static_all_active_masks_are_bit_exact(self, protocol, regular):
        """A materialized all-true schedule must reproduce the maskless
        trajectories bit for bit.  (DynamicsRuntime collapses all-active
        rounds onto the maskless fast path; this test guards that collapse —
        and, should it ever be removed, the guarantee still has to hold
        because masking consumes no randomness.)"""
        seeds = trial_seeds(2, "dyn-exact", protocol, trials=3)
        plain = run_batch(protocol, regular, 0, seeds=seeds, record_history=True)
        masked = run_batch(
            protocol,
            regular,
            0,
            seeds=seeds,
            record_history=True,
            dynamics=StaticSchedule(
                edge_state=np.ones(regular.num_edges, dtype=bool),
                vertex_state=np.ones(regular.num_vertices, dtype=bool),
            ),
        )
        assert plain.broadcast_times.tolist() == masked.broadcast_times.tolist()
        assert plain.vertex_histories == masked.vertex_histories
        assert plain.agent_histories == masked.agent_histories

    @pytest.mark.parametrize("protocol", ["push", "pull", "push-pull"])
    def test_severed_bridge_blocks_call_protocols(self, protocol):
        """With the double star's bridge permanently down, no call protocol
        can reach the far star: informed count stalls at the near half."""
        graph = double_star(40)
        result = run_batch(
            protocol,
            graph,
            2,
            seeds=trial_seeds(3, "bridge", trials=3),
            max_rounds=400,
            record_history=True,
            dynamics=StaticSchedule(down_edges=[(0, 1)]),
        )
        assert not result.completed.any()
        half = graph.num_vertices // 2
        for history in result.vertex_histories:
            assert max(history) <= half

    def test_agents_cannot_cross_a_severed_bridge(self):
        graph = double_star(40)
        result = run_batch(
            "visit-exchange",
            graph,
            2,
            seeds=trial_seeds(4, "bridge-agents", trials=2),
            max_rounds=400,
            dynamics=StaticSchedule(down_edges=[(0, 1)]),
        )
        assert not result.completed.any()

    def test_crashed_vertices_trap_agents(self, regular):
        """A permanent crash of vertex 0's whole neighborhood cannot stop an
        agent protocol from informing the rest — but vertices crashed while
        uninformed keep the trial incomplete (honest accounting)."""
        crash = NodeCrashes(crash_round=1, vertices=[regular.num_vertices - 1])
        result = run_batch(
            "visit-exchange",
            regular,
            0,
            seeds=trial_seeds(5, "crash", trials=3),
            max_rounds=2000,
            record_history=True,
            dynamics=crash,
        )
        assert not result.completed.any()
        n = regular.num_vertices
        for history in result.vertex_histories:
            assert max(history) == n - 1  # everything except the dead vertex

    def test_transient_crash_delays_but_completes(self, regular):
        crash = NodeCrashes(crash_round=2, fraction=0.25, seed=1, duration=15)
        result = run_batch(
            "push-pull",
            regular,
            0,
            seeds=trial_seeds(6, "transient-crash", trials=4),
            dynamics=crash,
        )
        assert result.completed.all()

    def test_failure_rate_degrades_mean_spreading_time(self, regular):
        baseline = run_batch(
            "push", regular, 0, seeds=trial_seeds(7, "degrade", trials=30)
        )
        failing = run_batch(
            "push",
            regular,
            0,
            seeds=trial_seeds(7, "degrade", trials=30),
            dynamics={"kind": "bernoulli-edges", "rate": 0.4, "seed": 8},
        )
        assert failing.broadcast_times.mean() > baseline.broadcast_times.mean()


# ---------------------------------------------------------------------------
# Observer parity under dynamics
# ---------------------------------------------------------------------------
def _observed_counts_batched(protocol, graph, source, seeds, schedule, **kwargs):
    observers = [ObserverGroup([EdgeUsageObserver()]) for _ in seeds]
    run_batch(
        protocol,
        graph,
        source,
        seeds=[np.random.default_rng(s) for s in seeds],
        observers=observers,
        dynamics=schedule,
        **kwargs,
    )
    return [next(iter(group)).counts for group in observers]


def _observed_counts_single(protocol, graph, source, seeds, schedule, **kwargs):
    counts = []
    for s in seeds:
        observer = EdgeUsageObserver()
        simulate(
            protocol,
            graph,
            source=source,
            seed=s,
            observers=ObserverGroup([observer]),
            dynamics=schedule,
            **kwargs,
        )
        counts.append(observer.counts)
    return counts


class TestObserverParityUnderDynamics:
    """``on_edges_used`` must report only mask-active edges, identically on
    one batch and single runs when they consume the same per-trial
    generators."""

    SEEDS = [101, 202, 303]

    @pytest.mark.parametrize(
        "protocol,kwargs",
        [
            ("push", {}),
            ("pull", {}),
            ("push-pull", {}),
            ("push-pull", {"track_all_exchanges": True}),
            ("visit-exchange", {}),
            ("visit-exchange", {"track_edge_traversals": True}),
        ],
    )
    def test_batch_equals_single_runs_per_trial(self, protocol, kwargs, regular):
        schedule_spec = {"kind": "bernoulli-edges", "rate": 0.3, "seed": 17}
        batched = _observed_counts_batched(
            protocol, regular, 0, self.SEEDS, resolve_dynamics(schedule_spec), **kwargs
        )
        single = _observed_counts_single(
            protocol, regular, 0, self.SEEDS, resolve_dynamics(schedule_spec), **kwargs
        )
        assert batched == single

    @pytest.mark.parametrize(
        "protocol,kwargs",
        [
            ("push", {}),
            ("pull", {}),
            ("push-pull", {}),
            ("push-pull", {"track_all_exchanges": True}),
            ("visit-exchange", {}),
            ("visit-exchange", {"track_edge_traversals": True}),
        ],
    )
    def test_only_mask_active_edges_are_reported(self, protocol, kwargs, regular):
        """With a fixed edge set permanently down, no reported edge may be in
        the down set, batched or single."""
        down = [
            (0, int(regular.neighbors(0)[0])),
            (1, int(regular.neighbors(1)[-1])),
        ]
        down_set = {tuple(sorted(edge)) for edge in down}
        schedule = StaticSchedule(down_edges=down)
        for counts in _observed_counts_batched(
            protocol, regular, 0, self.SEEDS, schedule, **kwargs
        ) + _observed_counts_single(
            protocol, regular, 0, self.SEEDS, schedule, **kwargs
        ):
            assert counts, f"{protocol}: no edges reported at all"
            reported = set(counts)
            assert not (reported & down_set), (
                f"{protocol}: reported traffic over masked-off edges "
                f"{reported & down_set}"
            )

    def test_per_round_exchange_count_shrinks_when_masked(self, regular):
        """The all-exchange bandwidth view reports exactly n exchanges per
        round without masking, and strictly fewer per round under failures
        (blocked exchanges are not reported)."""
        n = regular.num_vertices
        for schedule, expect_full in ((None, True), (BernoulliEdgeFailures(0.4, seed=23), False)):
            observers = [ObserverGroup([EdgeUsageObserver()]) for _ in self.SEEDS]
            result = run_batch(
                "push-pull",
                regular,
                0,
                seeds=[np.random.default_rng(s) for s in self.SEEDS],
                observers=observers,
                dynamics=schedule,
                track_all_exchanges=True,
            )
            for group, rounds in zip(observers, result.rounds_executed.tolist()):
                total = next(iter(group)).total_uses()
                if expect_full:
                    assert total == n * rounds
                else:
                    assert total < n * rounds
