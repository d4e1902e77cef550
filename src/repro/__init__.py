"""repro — reproduction of "How to Spread a Rumor: Call Your Neighbors or Take a Walk?".

The package simulates the four information-dissemination protocols compared by
Giakkoupis, Mallmann-Trenn and Saribekyan (PODC 2019) — PUSH, PUSH-PULL,
VISIT-EXCHANGE and MEET-EXCHANGE — on the graph families from the paper, and
ships the experiment harness that reproduces every claim of its evaluation.

Quickstart
----------
>>> from repro import simulate, graphs
>>> graph = graphs.double_star(200)
>>> result = simulate("push-pull", graph, source=2, seed=1)
>>> result.completed
True

See ``examples/quickstart.py`` for a guided tour and ``DESIGN.md`` for the
full system inventory.
"""

from __future__ import annotations

from typing import Optional

from . import analysis, core, graphs, store, theory
from .core import (
    KERNEL_REGISTRY,
    BatchResult,
    CoupledPushVisitExchange,
    RunResult,
    TrialSet,
    run_batch,
)
from .core.observers import ObserverGroup
from .core.rng import make_rng
from .graphs import Graph
from .store import ResultStore

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "simulate",
    "simulate_batch",
    "run_batch",
    "BatchResult",
    "Graph",
    "RunResult",
    "TrialSet",
    "CoupledPushVisitExchange",
    "KERNEL_REGISTRY",
    "ResultStore",
    "graphs",
    "core",
    "store",
    "theory",
    "analysis",
]


def simulate(
    protocol: str,
    graph: Graph,
    source: int = 0,
    *,
    seed=None,
    max_rounds: Optional[int] = None,
    observers: Optional[ObserverGroup] = None,
    **protocol_kwargs,
) -> RunResult:
    """Run a single protocol instance and return its :class:`RunResult`.

    This is the one-call convenience entry point: a one-trial
    :func:`~repro.core.batch.run_batch` with per-round histories recorded.
    Experiments that need repeated trials, sweeps or custom instrumentation
    should use :func:`~repro.core.batch.run_batch` and
    :mod:`repro.experiments` directly.

    Parameters
    ----------
    protocol:
        Registry name: ``"push"``, ``"push-pull"``, ``"pull"``,
        ``"visit-exchange"``, ``"meet-exchange"`` or ``"hybrid-ppull-visitx"``.
    graph:
        The graph to broadcast on (see :mod:`repro.graphs` for generators).
    source:
        The source vertex ``s``.
    seed:
        Seed or :class:`numpy.random.Generator` for reproducibility.
    max_rounds:
        Round budget; defaults to a generous bound based on the graph size.
    observers:
        Optional :class:`~repro.core.observers.ObserverGroup` receiving the
        run's hooks.
    protocol_kwargs:
        Extra arguments forwarded to the protocol kernel (e.g.
        ``agent_density=2.0`` for the agent-based protocols).
    """
    batch = run_batch(
        protocol,
        graph,
        source,
        seeds=[make_rng(seed)],
        max_rounds=max_rounds,
        record_history=True,
        observers=[observers] if observers else None,
        **protocol_kwargs,
    )
    return batch.to_run_results()[0]


def simulate_batch(
    protocol: str,
    graph: Graph,
    source: int = 0,
    *,
    trials: int,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    **protocol_kwargs,
) -> BatchResult:
    """Run ``trials`` independent trials of one protocol simultaneously.

    This is the batched counterpart of :func:`simulate`: all trials advance
    together on 2-D numpy state (see :mod:`repro.core.batch`), which is an
    order of magnitude faster than looping :func:`simulate` when estimating
    broadcast-time statistics.  Trial ``t`` draws from its own stream derived
    from ``(seed, "simulate-batch", t)``, so per-trial results are
    reproducible and independent of the batch size.

    Every registry protocol has a batched kernel; per-round histories and
    per-trial observers are available through
    :func:`repro.core.batch.run_batch` directly.
    """
    from .core.batch import trial_seeds

    seeds = trial_seeds(seed, "simulate-batch", trials=trials)
    return run_batch(
        protocol, graph, source, seeds=seeds, max_rounds=max_rounds, **protocol_kwargs
    )
