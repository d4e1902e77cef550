"""The coupon-collector reference of ``oracle.py`` against the exact law.

``test_push.py`` holds push from the centre of a star to
:func:`oracle.expected_collection_time`; these tests hold that expectation
to the closed form and to the coupon-collector law itself, and the push
kernel's whole broadcast-time distribution from the star centre to the law.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from oracle import expected_collection_time, harmonic_number
from repro.core.batch import run_batch, trial_seeds
from repro.core.kernels.vertex import VertexKernel
from repro.graphs import star


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


def collection_law(m: int, t_max: int) -> np.ndarray:
    """P(T <= t) for t = 0..t_max, T the time to collect m coupons:
    sum_j (-1)^j C(m,j) (1-j/m)^t, summed exactly in integers (the float
    sum cancels catastrophically) and rounded once."""
    powers = [1] * (m + 1)  # (m - j)^t
    signed = [(-1) ** j * math.comb(m, j) for j in range(m + 1)]
    law = []
    for t in range(t_max + 1):
        law.append(sum(c * p for c, p in zip(signed, powers)) / m**t)
        powers = [p * (m - j) for j, p in enumerate(powers)]
    return np.array(law)


def chi_square_critical(df: int, z: float) -> float:
    """Upper quantile of chi-square at the normal quantile z
    (Wilson-Hilferty), so the test needs no scipy."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def chi_square(times: np.ndarray, law: np.ndarray, minimum: float = 5.0):
    """Pearson's statistic of integer ``times`` against the law's CDF, with
    adjacent bins merged until each expects at least ``minimum``; and the
    number of bins."""
    n = times.size
    probability = np.diff(law, prepend=0.0)
    probability[-1] += 1.0 - law[-1]  # the last bin takes the tail
    observed = np.bincount(np.minimum(times, law.size - 1), minlength=law.size)
    bins, expected, count = [], 0.0, 0
    for p, o in zip(probability.tolist(), observed.tolist()):
        expected += n * p
        count += o
        if expected >= minimum:
            bins.append((count, expected))
            expected, count = 0.0, 0
    last_count, last_expected = bins.pop()
    bins.append((last_count + count, last_expected + expected))
    statistic = sum((o - e) ** 2 / e for o, e in bins)
    return statistic, len(bins)


class TestPushFromTheStarCentre:
    """Push from the centre of a star is the coupon collector: every round
    the centre calls one uniform leaf, and the leaves' calls reach the
    informed centre only (Lemma 2(a))."""

    def test_law_is_exact(self):
        law = collection_law(3, 12)
        # P(T <= t) for three coupons: 1 - 3 (2/3)^t + 3 (1/3)^t.
        for t in range(3, 13):
            assert law[t] == pytest.approx(1 - 3 * (2 / 3) ** t + 3 * (1 / 3) ** t, abs=1e-15)
        assert law[:3].tolist() == [0.0, 0.0, 0.0]
        assert np.all(np.diff(law) >= 0)

    def test_broadcast_times_follow_the_law(self, monkeypatch):
        # 64 leaves: 16-bit fixed-point offsets u * 64 >> 16 split the 2^16
        # values evenly, so each call is exactly uniform.  Batches of 100
        # trials run in blocks of push rounds.
        m, trials, batch = 64, 2000, 100
        blocks = []
        push_block = VertexKernel._push_block

        def counting(self, k):
            push_block(self, k)
            blocks.append(self._block[0])

        monkeypatch.setattr(VertexKernel, "_push_block", counting)
        seeds = trial_seeds(0, "star-centre-law", trials=trials)
        times = np.concatenate([
            run_batch("push", star(m), 0, seeds=seeds[i : i + batch]).broadcast_times
            for i in range(0, trials, batch)
        ])
        assert blocks and max(blocks) > 50 and np.all(times > 0)
        law = collection_law(m, int(times.max()) + 1)
        statistic, bins = chi_square(times, law)
        assert bins > 20
        assert statistic < chi_square_critical(bins - 1, 3.09), (statistic, bins)  # alpha = 1e-3
        # Many small bins are weak against a shift; the mean is not.  Round
        # i of the collection waits a geometric time with p = (m - i) / m.
        p = (m - np.arange(m)) / m
        mean, variance = np.sum(1 / p), np.sum((1 - p) / p**2)
        assert abs(times.mean() - mean) < 4 * math.sqrt(variance / trials)
