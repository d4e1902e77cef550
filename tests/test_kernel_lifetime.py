"""A kernel is freed the moment its run returns.

Kernels hold ``(trials, n)`` arrays.  A reference cycle through a kernel
would keep them alive until the next cyclic garbage collection, so the
kernels of consecutive cells would pile up in memory.  With the collector
off, a run must leave nothing for it to find.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.batch import run_batch, trial_seeds
from repro.core.observers import InformedCountObserver, ObserverGroup
from repro.graphs import double_star

ALL_PROTOCOLS = (
    "push",
    "pull",
    "push-pull",
    "visit-exchange",
    "meet-exchange",
    "hybrid-ppull-visitx",
)
AGENT_PROTOCOLS = ("visit-exchange", "meet-exchange", "hybrid-ppull-visitx")

SEEDS = trial_seeds(1, "lifetime", trials=3)


def _options(case):
    if case == "plain":
        return {}
    if case == "sparse":
        return {"frontier": "sparse"}
    if case == "dynamics":
        return {"dynamics": {"kind": "bernoulli-edges", "rate": 0.1, "seed": 3}}
    if case == "observers":
        return {"observers": [ObserverGroup([InformedCountObserver()]) for _ in SEEDS]}
    if case == "churn":
        return {"death_rate": 0.02, "failure_round": 2, "failure_fraction": 0.3}
    raise ValueError(case)


@pytest.mark.parametrize(
    "protocol, case",
    [
        (protocol, case)
        for protocol in ALL_PROTOCOLS
        for case in ("plain", "sparse", "dynamics", "observers", "churn")
        # Churn is an axis of the agent kernels only.
        if case != "churn" or protocol in AGENT_PROTOCOLS
    ],
)
def test_run_leaves_no_cyclic_garbage(protocol, case):
    graph = double_star(64)
    # A first run pays the one-off imports and caches.
    run_batch(protocol, graph, seeds=SEEDS, max_rounds=40, **_options(case))
    options = _options(case)
    gc.collect()
    gc.disable()
    try:
        run_batch(protocol, graph, seeds=SEEDS, max_rounds=40, **options)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
