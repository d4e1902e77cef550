"""The kernels against an independent implementation (``oracle.py``).

``oracle.py`` re-implements all six protocols as per-trial scalar loops with
its own random stream, sharing no code with :mod:`repro.core.kernels`.  Mean
broadcast times must agree under a two-sample z bound at 200 trials per
side, on a random 6-regular graph (the Theorem 1 regime) and on the double
star (push-pull's bridge bottleneck, Lemma 3).  The three agent protocols
are also checked under agent churn, whose rules the oracle restates over a
shrinking and growing population list, and multi-rumor visit-exchange is
checked rumor by rumor against the oracle's one-walk, loop-over-rumors
restatement.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracle
from repro.core.batch import run_batch, trial_seeds
from repro.extensions import MultiRumorVisitExchange, RumorInjection
from repro.graphs import double_star, random_regular_graph

TRIALS = 200
#: Two-sided bound on the z score of the difference of means.  Seeds are
#: fixed, so the test is deterministic; the bound only has to separate a
#: semantic divergence (z in the tens at this trial count) from noise.
Z_BOUND = 4.0


GRAPHS = {
    "regular": lambda: (random_regular_graph(64, 6, np.random.default_rng(5)), 0),
    "double-star": lambda: (double_star(32), 2),
}


#: Churn configurations: balanced deaths and births, and the same plus a
#: failure event that kills half the population in round 2.
CHURN = {
    "balanced": {"death_rate": 0.03},
    "failure": {"death_rate": 0.03, "failure_round": 2, "failure_fraction": 0.5},
}
#: Churned meet-exchange rumors can go extinct and then never complete; the
#: budget bounds those trials, and completion rates are compared as well.
CHURN_BUDGET = 400


#: Multi-rumor runs: three rumors, the later two from other vertices, cut
#: by a budget the last rumor misses now and then.  A wrong injection round
#: moves a rumor by about one round, so these runs take twice the trials.
MULTI_RUMOR_LATER = [(4, 17), (9, 5)]
MULTI_RUMOR_BUDGET = 24
MULTI_RUMOR_TRIALS = 400


def _mean_and_variance(times):
    times = np.asarray(times, dtype=float)
    return times.mean(), times.var(ddof=1)


def _z_score(kernel_times, oracle_times):
    """Two-sample z score of the difference of mean broadcast times."""
    kernel_mean, kernel_var = _mean_and_variance(kernel_times)
    oracle_mean, oracle_var = _mean_and_variance(oracle_times)
    spread = math.sqrt(kernel_var / len(kernel_times) + oracle_var / len(oracle_times))
    return abs(kernel_mean - oracle_mean) / spread if spread > 0 else 0.0


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("protocol", oracle.PROTOCOLS)
def test_kernel_matches_oracle_in_distribution(protocol, graph_name):
    graph, source = GRAPHS[graph_name]()
    kernel = run_batch(
        protocol, graph, source, seeds=trial_seeds(11, "kernel", protocol, trials=TRIALS)
    )
    assert kernel.completed.all()
    reference = [
        oracle.broadcast_time(protocol, graph, source, seed)
        for seed in trial_seeds(11, "oracle", protocol, trials=TRIALS)
    ]
    assert None not in reference

    z = _z_score(kernel.broadcast_times, reference)
    assert z < Z_BOUND, f"{protocol} on {graph_name}: z = {z:.2f}"


@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("protocol", oracle.AGENT_PROTOCOLS)
def test_churned_kernel_matches_oracle_in_distribution(protocol, graph_name, churn):
    graph, source = GRAPHS[graph_name]()
    params = CHURN[churn]
    kernel = run_batch(
        protocol,
        graph,
        source,
        seeds=trial_seeds(11, "kernel", protocol, trials=TRIALS),
        max_rounds=CHURN_BUDGET,
        **params,
    )
    reference = [
        oracle.broadcast_time(
            protocol, graph, source, seed, max_rounds=CHURN_BUDGET, **params
        )
        for seed in trial_seeds(11, "oracle", protocol, trials=TRIALS)
    ]
    if protocol != "meet-exchange":
        # Informed vertices persist, so churn cannot stop these protocols.
        assert kernel.completed.all() and None not in reference
    # Completion rates (meet-exchange extinction) and completed-trial means.
    _assert_same_outcomes(
        [int(t) if done else None for t, done in zip(kernel.broadcast_times, kernel.completed)],
        reference,
        f"{protocol} on {graph_name} under {churn} churn",
    )


def _assert_same_outcomes(kernel_times, oracle_times, label):
    """z-test completion rates, then the mean times of the completed trials."""
    kernel_done = np.array([t is not None for t in kernel_times])
    oracle_done = np.array([t is not None for t in oracle_times])
    trials = len(kernel_times)
    pooled = (kernel_done.sum() + oracle_done.sum()) / (2 * trials)
    rate_spread = math.sqrt(2 * pooled * (1 - pooled) / trials)
    if rate_spread > 0:
        rate_z = abs(kernel_done.mean() - oracle_done.mean()) / rate_spread
        assert rate_z < Z_BOUND, f"{label}: completion rates differ (z = {rate_z:.2f})"
    z = _z_score(
        [t for t in kernel_times if t is not None],
        [t for t in oracle_times if t is not None],
    )
    assert z < Z_BOUND, f"{label}: z = {z:.2f}"


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_multi_rumor_matches_oracle_per_rumor(graph_name):
    graph, source = GRAPHS[graph_name]()
    schedule = [(0, source)] + MULTI_RUMOR_LATER
    rumors = [RumorInjection(round_index, vertex) for round_index, vertex in schedule]
    kernel = MultiRumorVisitExchange().run_batch(
        graph,
        [rumors] * MULTI_RUMOR_TRIALS,
        seeds=trial_seeds(11, "kernel", "multi-rumor", trials=MULTI_RUMOR_TRIALS),
        max_rounds=MULTI_RUMOR_BUDGET,
    )
    reference = [
        oracle.multi_rumor_completion_rounds(
            graph, schedule, seed, max_rounds=MULTI_RUMOR_BUDGET
        )
        for seed in trial_seeds(11, "oracle", "multi-rumor", trials=MULTI_RUMOR_TRIALS)
    ]
    for i in range(len(schedule)):
        _assert_same_outcomes(
            [run.completion_rounds[i] for run in kernel],
            [run[i] for run in reference],
            f"rumor {i} on {graph_name}",
        )


def test_oracle_is_seed_deterministic():
    graph, source = GRAPHS["regular"]()
    for protocol in oracle.PROTOCOLS:
        first = oracle.broadcast_time(protocol, graph, source, 3)
        assert first == oracle.broadcast_time(protocol, graph, source, 3)


def test_oracle_respects_round_budget():
    graph, source = GRAPHS["double-star"]()
    assert oracle.broadcast_time("push", graph, source, 0, max_rounds=1) is None


def test_oracle_rejects_churn_for_vertex_protocols():
    graph, source = GRAPHS["regular"]()
    with pytest.raises(ValueError, match="no agents"):
        oracle.broadcast_time("push", graph, source, 0, death_rate=0.1)
