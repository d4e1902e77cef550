"""Shared helpers for the benchmark harness (imported by the bench modules)."""

from __future__ import annotations

from repro.core.batch import run_batch

__all__ = ["mean_broadcast_time"]


def mean_broadcast_time(protocol, graph, source, trials=3, **kwargs):
    """Mean broadcast time over a few completed runs (asserts completion).

    All trials advance together in one :func:`~repro.core.batch.run_batch`
    call; trial ``t`` is seeded with ``t``.
    """
    result = run_batch(protocol, graph, source, seeds=range(trials), **kwargs)
    assert result.completed.all(), f"{protocol} did not complete on {graph.name}"
    return float(result.broadcast_times.mean())
