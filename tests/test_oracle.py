"""The kernels against an independent implementation (``oracle.py``).

``oracle.py`` re-implements all six protocols as per-trial scalar loops with
its own random stream, sharing no code with :mod:`repro.core.kernels`.  Mean
broadcast times must agree under a two-sample z bound at 200 trials per
side, on a random 6-regular graph (the Theorem 1 regime) and on the double
star (push-pull's bridge bottleneck, Lemma 3).
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


def _mean_and_variance(times):
    times = np.asarray(times, dtype=float)
    return times.mean(), times.var(ddof=1)


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

    kernel_mean, kernel_var = _mean_and_variance(kernel.broadcast_times)
    oracle_mean, oracle_var = _mean_and_variance(reference)
    spread = math.sqrt((kernel_var + oracle_var) / TRIALS)
    z = abs(kernel_mean - oracle_mean) / spread if spread > 0 else 0.0
    assert z < Z_BOUND, (
        f"{protocol} on {graph_name}: kernel mean {kernel_mean:.2f} vs oracle "
        f"mean {oracle_mean:.2f} (z = {z:.2f})"
    )


def test_oracle_is_seed_deterministic():
    graph, source = GRAPHS["regular"]()
    for protocol in oracle.PROTOCOLS:
        first = oracle.broadcast_time(protocol, graph, source, 3)
        assert first == oracle.broadcast_time(protocol, graph, source, 3)


def test_oracle_respects_round_budget():
    graph, source = GRAPHS["double-star"]()
    assert oracle.broadcast_time("push", graph, source, 0, max_rounds=1) is None
