"""The coupon-collector reference of ``oracle.py`` against the exact law.

``test_push.py`` holds push from the centre of a star to
:func:`oracle.expected_collection_time`; these tests hold that expectation
to the closed form and to the coupon-collector law itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from oracle import expected_collection_time, harmonic_number


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

    def test_full_rejects_zero(self):
        with pytest.raises(ValueError):
            expected_collection_time(0)


class TestExactLaw:
    """The expectation against the coupon-collector law, not the closed form."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_full_collection_matches_the_law(self, m):
        # P(T > t) = sum_{j>=1} (-1)^(j+1) C(m,j) (1-j/m)^t, so summing over
        # t >= 0 gives E[T] = sum_j (-1)^(j+1) C(m,j) m/j exactly.
        expected = sum(
            Fraction((-1) ** (j + 1) * math.comb(m, j) * m, j) for j in range(1, m + 1)
        )
        assert expected_collection_time(m) == pytest.approx(float(expected), rel=1e-12)
