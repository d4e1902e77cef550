"""Summary statistics over repeated protocol trials.

The experiments run each (protocol, graph, size) configuration many times; the
summaries here — mean, median, bootstrap confidence intervals, quantiles — are
what ends up in the generated tables of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ..core.results import TrialSet

__all__ = ["Summary", "summarize", "summarize_trials", "bootstrap_ci", "bootstrap_resamples"]


@dataclass(frozen=True)
class Summary:
    """Summary statistics of a sample of broadcast times (or any sample)."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    q25: float
    q75: float
    ci_low: float
    ci_high: float


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: int = 0,
) -> tuple:
    """Percentile-bootstrap confidence interval for the mean of ``values``."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    if data.size == 1:
        return float(data[0]), float(data[0])
    means = bootstrap_resamples(data, num_resamples, seed)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )


def bootstrap_resamples(values, num_resamples: int = 2000, seed: int = 0, reduce=np.mean):
    """``reduce`` (mean or min) of each of ``num_resamples`` resamples of ``values``."""
    data = np.asarray(values, dtype=float)
    return reduce(data[_resample_indices(data.size, num_resamples, seed)], axis=1)


@lru_cache(maxsize=8)
def _resample_indices(size: int, num_resamples: int, seed: int) -> np.ndarray:
    """The ``(num_resamples, size)`` index matrix seed ``seed`` draws.

    Every cell of one sample size and every claim that reads it resample
    with the same matrix, so it is drawn once and kept read-only; the memo
    holds the few sizes a report sees (one per trial count).
    """
    indices = np.random.default_rng(seed).integers(0, size, size=(num_resamples, size))
    indices.setflags(write=False)
    return indices


def summarize(values: Sequence[float], *, confidence: float = 0.95) -> Summary:
    """Compute a :class:`Summary` of a non-empty numeric sample."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    ci_low, ci_high = bootstrap_ci(data, confidence=confidence)
    return Summary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        maximum=float(data.max()),
        median=float(np.median(data)),
        q25=float(np.quantile(data, 0.25)),
        q75=float(np.quantile(data, 0.75)),
        ci_low=ci_low,
        ci_high=ci_high,
    )


def summarize_trials(trials: TrialSet, *, confidence: float = 0.95) -> Optional[Summary]:
    """Summarize the broadcast times of a trial set; None if nothing completed."""
    times = trials.broadcast_times()
    if not times:
        return None
    return summarize(times, confidence=confidence)
