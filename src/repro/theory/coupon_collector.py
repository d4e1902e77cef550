"""Coupon-collector quantities.

Several of the paper's arguments reduce to the coupon-collector problem: the
star-center in the PUSH lower bound of Lemma 2(a) must sample (almost) all
``n`` leaves, and the last stage of the cycle-of-stars argument in Lemma 9(a)
is "it takes ``O(n^{1/3} log n)`` rounds (by coupon collector's) until all
cliques are informed".  These helpers give the exact expectations and tail
bounds used by the theory-prediction layer and its tests.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "harmonic_number",
    "expected_collection_time",
    "expected_partial_collection_time",
    "collection_time_tail_bound",
]


def harmonic_number(n: int) -> float:
    """Return ``H_n = sum_{i=1}^{n} 1/i`` (exact summation for moderate n)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    if n <= 10**6:
        return float(np.sum(1.0 / np.arange(1, n + 1)))
    # Asymptotic expansion for very large n (never needed by the experiments,
    # but keeps the function total).
    gamma = 0.5772156649015328606
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n**2)


def expected_collection_time(num_coupons: int) -> float:
    """Expected draws to collect all ``num_coupons`` coupons: ``n * H_n``."""
    if num_coupons < 1:
        raise ValueError("need at least one coupon")
    return num_coupons * harmonic_number(num_coupons)


def expected_partial_collection_time(num_coupons: int, target: int) -> float:
    """Expected draws to collect any ``target`` distinct coupons out of ``n``.

    ``E = n * (H_n - H_{n-target})``.  Lemma 2(a) uses the case
    ``target = n - 1`` ("all leaves except possibly one").
    """
    if not 0 <= target <= num_coupons:
        raise ValueError("target must lie between 0 and num_coupons")
    if target == 0:
        return 0.0
    return num_coupons * (
        harmonic_number(num_coupons) - harmonic_number(num_coupons - target)
    )


def collection_time_tail_bound(num_coupons: int, deviation: float) -> float:
    """Upper bound on ``P[T > n ln n + c n]``: the classical ``e^{-c}`` bound."""
    if num_coupons < 1:
        raise ValueError("need at least one coupon")
    return float(min(1.0, math.exp(-deviation)))
