"""Tests for growth-rate fitting (repro.analysis.scaling)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.scaling import (
    best_growth_model,
    fit_growth,
    power_law_exponent,
)


def series(func, sizes, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return [func(n) * (1 + noise * rng.standard_normal()) for n in sizes]


SIZES = [128, 256, 512, 1024, 2048]


class TestFitGrowth:
    def test_exact_linear_fit(self):
        fit = fit_growth(SIZES, [3 * n for n in SIZES], "n")
        assert fit.constant == pytest.approx(3.0)
        assert fit.relative_rmse == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_log_fit(self):
        times = [5 * math.log(n) for n in SIZES]
        fit = fit_growth(SIZES, times, "log n")
        assert fit.constant == pytest.approx(5.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_growth([1, 2], [1.0], "n")

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_growth([10], [5.0], "n")


class TestBestGrowthModel:
    def test_identifies_linear_growth(self):
        times = series(lambda n: 0.5 * n, SIZES, noise=0.05)
        best = best_growth_model(SIZES, times, candidates=["log n", "n", "n log n"])
        assert best.growth == "n"

    def test_identifies_logarithmic_growth(self):
        times = series(lambda n: 4 * math.log(n), SIZES, noise=0.05)
        best = best_growth_model(SIZES, times, candidates=["log n", "n", "n log n"])
        assert best.growth == "log n"

    def test_identifies_n_log_n(self):
        times = series(lambda n: 1.2 * n * math.log(n), SIZES, noise=0.03)
        best = best_growth_model(SIZES, times, candidates=["log n", "n", "n log n"])
        assert best.growth == "n log n"

    def test_identifies_two_thirds_power(self):
        times = series(lambda n: 2 * n ** (2 / 3), SIZES, noise=0.03)
        best = best_growth_model(
            SIZES, times, candidates=["log n", "n", "n^(2/3)", "n^(2/3) log n"]
        )
        assert best.growth == "n^(2/3)"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            best_growth_model(SIZES, [1.0] * len(SIZES), candidates=[])


class TestPowerLawExponent:
    def test_linear_series_exponent_one(self):
        assert power_law_exponent(SIZES, [2 * n for n in SIZES]) == pytest.approx(1.0)

    def test_sqrt_series(self):
        times = [math.sqrt(n) for n in SIZES]
        assert power_law_exponent(SIZES, times) == pytest.approx(0.5, abs=0.01)

    def test_logarithmic_series_has_small_exponent(self):
        times = [math.log(n) for n in SIZES]
        assert power_law_exponent(SIZES, times) < 0.25

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            power_law_exponent([1, 2], [0.0, 1.0])

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            power_law_exponent([10], [5])

