"""Tests for the batched multi-trial driver (repro.core.batch).

Two contracts matter (statistical agreement with an independent
implementation lives in ``test_oracle.py``):

* **Per-trial seed determinism** — trial ``t`` draws only from ``seeds[t]``,
  so its result is reproducible and independent of the surrounding batch.
* **Completion masking** — finished trials keep their recorded times while the
  rest of the batch runs on, and budget-exhausted trials surface as
  incomplete runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import simulate_batch
from repro.core.batch import run_batch, trial_seeds
from repro.core.kernels import KERNEL_REGISTRY
from repro.core.rng import derive_seed
from repro.experiments.config import GraphCase, ProtocolSpec
from repro.experiments.runner import run_trial_set
from repro.graphs import complete_graph, random_regular_graph, star
from repro.graphs.graph import Graph, GraphError


@pytest.fixture(scope="module")
def star_case():
    return GraphCase(graph=star(100), source=1, size_parameter=100)


@pytest.fixture(scope="module")
def regular_case():
    graph = random_regular_graph(64, 6, np.random.default_rng(5))
    return GraphCase(graph=graph, source=0, size_parameter=64)


class TestRunnerCells:
    def test_all_trials_complete(self, regular_case):
        trials = run_trial_set(ProtocolSpec("push"), regular_case, trials=10, base_seed=0)
        assert trials.completion_rate == 1.0


class TestPerTrialSeedDeterminism:
    def test_rerun_reproduces_per_trial_times(self, regular_case):
        seeds = trial_seeds(3, "determinism", trials=12)
        first = run_batch("visit-exchange", regular_case.graph, 0, seeds=seeds)
        second = run_batch("visit-exchange", regular_case.graph, 0, seeds=seeds)
        assert first.broadcast_times.tolist() == second.broadcast_times.tolist()

    @pytest.mark.parametrize("protocol", sorted(KERNEL_REGISTRY))
    def test_trial_result_independent_of_batch_composition(self, protocol, regular_case):
        seeds = trial_seeds(7, "independence", trials=10)
        full = run_batch(protocol, regular_case.graph, 0, seeds=seeds)
        front = run_batch(protocol, regular_case.graph, 0, seeds=seeds[:4])
        back = run_batch(protocol, regular_case.graph, 0, seeds=seeds[4:])
        combined = front.broadcast_times.tolist() + back.broadcast_times.tolist()
        assert full.broadcast_times.tolist() == combined

    def test_distinct_seeds_vary(self, star_case):
        result = run_batch(
            "push", star_case.graph, star_case.source, seeds=range(12)
        )
        assert len(set(result.broadcast_times.tolist())) > 1

    def test_trial_seeds_match_runner_derivation(self):
        seeds = trial_seeds(9, "exp", "label", 64, trials=3)
        assert seeds == [derive_seed(9, "exp", "label", 64, t) for t in range(3)]


class TestCompletionMasking:
    def test_budget_exhaustion(self, star_case):
        # Push from a star leaf cannot finish in one round.
        result = run_batch(
            "push", star_case.graph, star_case.source, seeds=[1, 2, 3], max_rounds=1
        )
        assert not result.completed.any()
        assert result.broadcast_times.tolist() == [-1, -1, -1]
        assert result.rounds_executed.tolist() == [1, 1, 1]
        for run in result.to_run_results():
            assert run.broadcast_time is None and not run.completed

    def test_trial_complete_at_round_zero(self):
        single = Graph(1, [], name="single")
        result = run_batch("push", single, 0, seeds=[1, 2])
        assert result.completed.all()
        assert result.broadcast_times.tolist() == [0, 0]
        assert result.rounds_executed.tolist() == [0, 0]

    def test_mixed_completion_keeps_per_trial_times(self):
        """Trials finishing under a tight budget record the same times as
        without one; the rest are marked incomplete at the budget."""
        graph = complete_graph(16)
        seeds = list(range(20))
        free = run_batch("push", graph, 0, seeds=seeds)
        assert free.completed.all()
        cutoff = int(np.median(free.broadcast_times))
        capped = run_batch("push", graph, 0, seeds=seeds, max_rounds=cutoff)
        fast = free.broadcast_times <= cutoff
        assert capped.completed.tolist() == fast.tolist()
        assert 0 < fast.sum() < len(seeds)  # the cutoff really splits the batch
        assert (
            capped.broadcast_times[fast].tolist()
            == free.broadcast_times[fast].tolist()
        )
        assert (capped.broadcast_times[~fast] == -1).all()
        assert (capped.rounds_executed[~fast] == cutoff).all()

    def test_completed_trials_stop_advancing(self, regular_case):
        result = run_batch("push-pull", regular_case.graph, 0, seeds=range(8))
        done = result.completed
        assert (
            result.rounds_executed[done].tolist()
            == result.broadcast_times[done].tolist()
        )


class TestValidationAndDispatch:
    def test_unknown_protocol_rejected(self, star_case):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_batch("gossip-9000", star_case.graph, 0, seeds=[1])

    def test_empty_seed_list_rejected(self, star_case):
        with pytest.raises(ValueError):
            run_batch("push", star_case.graph, 0, seeds=[])

    def test_source_and_connectivity_validated(self):
        disconnected = Graph(4, [(0, 1), (2, 3)], name="two-edges")
        with pytest.raises(GraphError):
            run_batch("push", disconnected, 0, seeds=[1])
        with pytest.raises(GraphError):
            run_batch("push", star(10), 99, seeds=[1])

    def test_runner_rejects_unknown_protocol(self, star_case):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_trial_set(ProtocolSpec("gossip-9000"), star_case, trials=1, base_seed=0)

    def test_runner_records_history(self, star_case):
        trials = run_trial_set(
            ProtocolSpec("push"),
            star_case,
            trials=3,
            base_seed=0,
            record_history=True,
        )
        for result in trials.results:
            history = result.informed_vertex_history
            assert history[0] == 1
            assert len(history) == result.broadcast_time + 1
            assert history[-1] == star_case.graph.num_vertices
            assert all(b >= a for a, b in zip(history, history[1:]))

    def test_runner_stamps_batched_backend(self, star_case):
        # Stored artifacts keep recording the (only) execution path.
        batched = run_trial_set(ProtocolSpec("pull"), star_case, trials=2, base_seed=0)
        assert batched.backend == "batched"
        assert all(r.metadata["backend"] == "batched" for r in batched.results)


class TestResultPackaging:
    def test_trial_set_round_trip(self, regular_case):
        result = run_batch("push", regular_case.graph, 0, seeds=range(5))
        trial_set = result.to_trial_set()
        assert len(trial_set) == 5
        assert trial_set.protocol == "push"
        assert trial_set.num_vertices == 64
        assert all(r.messages_sent > 0 for r in trial_set.results)

    def test_agent_protocol_metadata_and_counts(self, star_case):
        result = run_batch(
            "meet-exchange", star_case.graph, star_case.source, seeds=range(4)
        )
        assert result.num_agents == star_case.graph.num_vertices
        for meta in result.metadata:
            # The star is bipartite: lazy walks must auto-enable.
            assert meta["lazy"] is True
            assert "source_still_informs" in meta

    def test_simulate_batch_convenience(self, regular_case):
        result = simulate_batch("push-pull", regular_case.graph, trials=6, seed=2)
        assert result.num_trials == 6
        assert result.completed.all()
        assert result.mean_broadcast_time() > 0
