"""The kernels against an independent implementation (``oracle.py``).

``oracle.py`` re-implements all six protocols as per-trial scalar loops with
its own random stream, sharing no code with :mod:`repro.core.kernels`.  Mean
broadcast times must agree under a two-sample z bound at 200 trials per
side, on a random 6-regular graph (the Theorem 1 regime) and on the double
star (push-pull's bridge bottleneck, Lemma 3).  The three agent protocols
are also checked under agent churn, whose rules the oracle restates over a
shrinking and growing population list.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracle
from repro.core.batch import run_batch, trial_seeds
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
    oracle_done = np.array([t is not None for t in reference])
    if protocol != "meet-exchange":
        # Informed vertices persist, so churn cannot stop these protocols.
        assert kernel.completed.all() and oracle_done.all()

    # Completion rates (meet-exchange extinction) agree as proportions...
    pooled = (kernel.completed.sum() + oracle_done.sum()) / (2 * TRIALS)
    rate_spread = math.sqrt(2 * pooled * (1 - pooled) / TRIALS)
    if rate_spread > 0:
        rate_z = abs(kernel.completed.mean() - oracle_done.mean()) / rate_spread
        assert rate_z < Z_BOUND, f"{protocol} on {graph_name}: completion rates differ"
    # ...and so do the mean broadcast times of the completed trials.
    z = _z_score(
        kernel.broadcast_times[kernel.completed],
        [t for t in reference if t is not None],
    )
    assert z < Z_BOUND, f"{protocol} on {graph_name} under {churn} churn: z = {z:.2f}"


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
