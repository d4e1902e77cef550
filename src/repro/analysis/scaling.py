"""Growth-rate fitting: which ``f(n)`` best explains measured broadcast times.

The paper's claims are asymptotic (e.g. ``E[T_push] = Omega(n log n)`` on the
star, ``T_visitx = O(log n)`` on the double star).  To check the *shape* of a
measurement series ``(n_i, T_i)`` the experiments fit each candidate growth
function ``f`` by least squares on ``T ≈ c · f(n)`` and pick the candidate
with the smallest relative residual; a separate helper estimates the best-fit
exponent of a pure power law, which is convenient for distinguishing
polynomial from logarithmic growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..theory.predictions import GROWTH_FUNCTIONS, growth_value

__all__ = ["GrowthFit", "fit_growth", "best_growth_model", "power_law_exponent"]


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of ``T ≈ c * f(n)`` for a named growth function."""

    growth: str
    constant: float
    relative_rmse: float
    r_squared: float


def fit_growth(
    sizes: Sequence[float], times: Sequence[float], growth: str
) -> GrowthFit:
    """Fit a single named growth function to the measurement series."""
    sizes = np.asarray(list(sizes), dtype=float)
    times = np.asarray(list(times), dtype=float)
    if sizes.size != times.size:
        raise ValueError("sizes and times must have equal length")
    if sizes.size < 2:
        raise ValueError("need at least two measurements to fit a growth model")
    constant, relative_rmse, residuals = _least_squares(_basis(sizes, growth), times)
    total_var = float(np.sum((times - times.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(residuals**2)) / total_var if total_var > 0 else 1.0
    return GrowthFit(
        growth=growth,
        constant=float(constant),
        relative_rmse=float(relative_rmse),
        r_squared=r_squared,
    )


def _basis(sizes: np.ndarray, growth: str) -> np.ndarray:
    basis = np.array([growth_value(growth, n) for n in sizes])
    if np.allclose(basis, 0.0):
        raise ValueError(f"growth function {growth!r} is degenerate on these sizes")
    return basis


def _least_squares(basis: np.ndarray, times: np.ndarray):
    """``(c, relative RMSE, residuals)`` of ``times[..., i] ≈ c * basis[i]``."""
    constant = np.dot(times, basis) / np.dot(basis, basis)
    residuals = times - np.multiply.outer(constant, basis)
    denom = np.maximum(np.abs(times), 1e-12)
    return constant, np.sqrt(np.mean((residuals / denom) ** 2, axis=-1)), residuals


def best_growth_index(sizes, times: np.ndarray, candidates: Sequence[str]) -> np.ndarray:
    """Index into ``candidates`` of the smallest relative-RMSE fit, per row of ``times``."""
    sizes, times = np.asarray(sizes, dtype=float), np.asarray(times, dtype=float)
    return np.argmin([_least_squares(_basis(sizes, c), times)[1] for c in candidates], axis=0)


def best_growth_model(
    sizes: Sequence[float],
    times: Sequence[float],
    *,
    candidates: Optional[Sequence[str]] = None,
) -> GrowthFit:
    """Return the candidate growth function with the smallest relative RMSE."""
    names = list(candidates) if candidates is not None else list(GROWTH_FUNCTIONS)
    if not names:
        raise ValueError("need at least one candidate growth function")
    return fit_growth(sizes, times, names[int(best_growth_index(sizes, times, names))])


def power_law_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Estimate ``beta`` in ``T ≈ c * n^beta`` by log-log linear regression.

    A measured exponent near 0 indicates (poly)logarithmic growth; near 1,
    linear growth; near 2/3, the ``n^{2/3}`` regime of Lemma 9.  ``times`` of
    shape ``(m, len(sizes))`` fits ``m`` series at once and returns an array.
    """
    sizes = np.asarray(list(sizes), dtype=float)
    times = np.asarray(times, dtype=float)
    if times.shape[-1:] != sizes.shape or sizes.size < 2:
        raise ValueError("need two equal-length series with at least two points")
    if np.any(sizes <= 0) or np.any(times <= 0):
        raise ValueError("power-law fitting requires positive sizes and times")
    log_n = np.log(sizes)
    log_t = np.log(times)
    slope, _intercept = np.polyfit(log_n, log_t.T, deg=1)
    return float(slope) if times.ndim == 1 else slope

