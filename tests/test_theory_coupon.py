"""Tests for coupon-collector helpers (repro.theory.coupon_collector)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.theory.coupon_collector import (
    collection_time_tail_bound,
    expected_collection_time,
    expected_partial_collection_time,
    harmonic_number,
)


class TestHarmonicNumber:
    def test_small_values(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == pytest.approx(1.0)
        assert harmonic_number(2) == pytest.approx(1.5)
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_close_to_log_for_large_n(self):
        n = 10000
        assert harmonic_number(n) == pytest.approx(math.log(n) + 0.5772, abs=0.01)

    def test_asymptotic_branch_continuous(self):
        # The asymptotic expansion used above 10^6 must agree with direct
        # summation at the crossover point.
        direct = float(np.sum(1.0 / np.arange(1, 10**6 + 1)))
        assert harmonic_number(10**6 + 1) == pytest.approx(direct + 1 / (10**6 + 1), rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_number(-1)


class TestExpectations:
    def test_full_collection_formula(self):
        assert expected_collection_time(1) == pytest.approx(1.0)
        assert expected_collection_time(2) == pytest.approx(3.0)
        assert expected_collection_time(3) == pytest.approx(5.5)

    def test_partial_collection_boundaries(self):
        assert expected_partial_collection_time(10, 0) == 0.0
        assert expected_partial_collection_time(10, 10) == pytest.approx(
            expected_collection_time(10)
        )

    def test_partial_collection_monotone_in_target(self):
        values = [expected_partial_collection_time(20, t) for t in range(21)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_partial_rejects_bad_target(self):
        with pytest.raises(ValueError):
            expected_partial_collection_time(5, 6)

    def test_full_rejects_zero(self):
        with pytest.raises(ValueError):
            expected_collection_time(0)


class TestExactLaw:
    """The expectations against the coupon-collector law, not the closed forms."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_full_collection_matches_the_law(self, m):
        # P(T > t) = sum_{j>=1} (-1)^(j+1) C(m,j) (1-j/m)^t, so summing over
        # t >= 0 gives E[T] = sum_j (-1)^(j+1) C(m,j) m/j exactly.
        expected = sum(
            Fraction((-1) ** (j + 1) * math.comb(m, j) * m, j) for j in range(1, m + 1)
        )
        assert expected_collection_time(m) == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize("m, target", [(4, 0), (4, 1), (4, 3), (6, 5), (7, 7)])
    def test_partial_collection_matches_the_absorbing_chain(self, m, target):
        # State k = distinct coupons held; a draw moves k -> k+1 with
        # probability (m-k)/m and stays otherwise.  Solve (I - Q) E = 1 over
        # the transient states 0..target-1 for the expected absorption time.
        if target == 0:
            assert expected_partial_collection_time(m, 0) == 0.0
            return
        stay = np.diag([k / m for k in range(target)])
        advance = np.diag([(m - k) / m for k in range(target - 1)], k=1)
        times = np.linalg.solve(np.eye(target) - stay - advance, np.ones(target))
        assert expected_partial_collection_time(m, target) == pytest.approx(times[0], rel=1e-12)


class TestTailBound:
    def test_bound_decreases_with_deviation(self):
        assert collection_time_tail_bound(10, 1.0) > collection_time_tail_bound(10, 3.0)

    def test_bound_at_most_one(self):
        assert collection_time_tail_bound(10, -5.0) == 1.0
