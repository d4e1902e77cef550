"""Evaluate the paper's claims (:mod:`repro.theory.predictions`) on sweep cells.

Each quantity a claim bounds (a ratio or additive margin per size, an exponent,
a completion rate) gets a percentile-bootstrap interval over resampled trials
(the same indices in every cell, so seed-paired cells stay paired).  It passes
when the interval lies within the bounds, fails when wholly outside, and is
inconclusive otherwise -- as is a claim the cells cannot decide.  A growth
class passes when 95% of the resampled best fits are admitted;
a fit outside it can be a lower-order term at small sizes, so it never fails.
Orderings are checked at the largest size, where a separation is widest.
A document claim bounds a column of a coupling or fairness document's table
as it is stored, with no resampling: it passes or fails on the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..theory.predictions import GROWTH_CANDIDATES, Prediction
from .scaling import best_growth_index, power_law_exponent
from .statistics import bootstrap_resamples

__all__ = ["ClaimVerdict", "evaluate_claim"]

_RANK = {"fail": 0, "inconclusive": 1, "pass": 2}
_CONFIDENCE, _RESAMPLES = 0.95, 2000


@dataclass(frozen=True)
class ClaimVerdict:
    """A claim's verdict, with the statistic and interval that decided it."""

    claim: Prediction
    verdict: str
    statistic: Optional[float] = None
    interval: Optional[Tuple[float, float]] = None
    detail: str = ""

    def as_row(self) -> Dict[str, Any]:
        """JSON-safe report row."""
        return {
            "id": self.claim.claim_id,
            "kind": self.claim.check,
            "claim": self.claim.describe(),
            "statistic": self.statistic,
            "interval": None if self.interval is None else list(self.interval),
            "verdict": self.verdict,
            "detail": self.detail,
        }


def _rows(point, samples, labels, low, high) -> List[Tuple]:
    """``(verdict, slack, point, lo, hi, label)`` per quantity (per column)."""
    alpha = (1.0 - _CONFIDENCE) / 2.0
    lows, highs = np.quantile(np.reshape(samples, (len(samples), -1)), [alpha, 1 - alpha], axis=0)
    rows = []
    for value, lo, hi, label in zip(np.ravel(point), lows, highs, labels):
        slack = min(lo - low if low is not None else math.inf,
                    high - hi if high is not None else math.inf)
        outside = (low is not None and hi < low) or (high is not None and lo > high)
        verdict = "pass" if slack >= 0 else "fail" if outside else "inconclusive"
        rows.append((verdict, slack, float(value), float(lo), float(hi), label))
    return rows


def _verdict(claim: Prediction, rows: List[Tuple]) -> ClaimVerdict:
    """The worst quantity decides the claim and is the one reported."""
    verdict, _slack, point, lo, hi, label = min(rows, key=lambda r: (_RANK[r[0]], r[1]))
    return ClaimVerdict(claim, verdict, point, (lo, hi), label)


def _document_verdict(claim: Prediction, document) -> ClaimVerdict:
    """The claim's statistic in every matching row of ``document.table_rows()``,
    each row named by its first column."""
    wanted = {"graph": claim.family, "mechanism": claim.protocol}
    chosen = [row for row in document.table_rows()
              if all(row.get(col, want) == want or want == "any" for col, want in wanted.items())]
    if not chosen or any(claim.statistic not in row for row in chosen):
        return ClaimVerdict(claim, "inconclusive", detail=f"no {claim.statistic!r} rows")
    values = np.array([float(row[claim.statistic]) for row in chosen])
    labels = ["{}={}".format(*next(iter(row.items()))) for row in chosen]
    found = _rows(values, values[None], labels, claim.low, claim.high)
    if claim.spread is not None:
        drift = values[-1] / max(values[0], 1.0)
        found += _rows(drift, [[drift]], ["last/max(first, 1)"], None, claim.spread)
    return replace(_verdict(claim, found), interval=None)


def evaluate_claim(claim: Prediction, cells: Sequence) -> ClaimVerdict:
    """Evaluate one claim on an experiment's cells (``ExperimentResult.cells``);
    a document claim reads the coupling or fairness document passed instead."""
    if claim.check == "document":
        return _document_verdict(claim, cells)

    def rows(point, samples, labels, low=claim.low, high=claim.high):
        return _rows(point, samples, labels, low, high)

    if claim.check == "completion":
        chosen = [c for c in cells if claim.protocol in ("*", c.protocol_label)]
        if not chosen:
            return ClaimVerdict(claim, "inconclusive", detail="no cells")
        flags = [[float(r.completed) for r in c.trials.results] for c in chosen]
        samples = np.stack([bootstrap_resamples(f, _RESAMPLES) for f in flags], axis=1)
        labels = [f"{c.protocol_label} at n={c.num_vertices}" for c in chosen]
        return _verdict(claim, rows([np.mean(f) for f in flags], samples, labels))

    series = {label: {c.num_vertices: c for c in cells if c.protocol_label == label}
              for label in (claim.protocol, claim.other) if label is not None}
    sizes = sorted(set.intersection(*(set(s) for s in series.values())))
    involved = [by_n[n] for by_n in series.values() for n in sizes]
    reduce = np.min if claim.reduce == "min" else np.mean
    times = [np.asarray(c.trials.broadcast_times(), dtype=float) for c in involved]
    undecided = (
        "protocol not run" if not sizes
        else "incomplete trials" if any(c.completion_rate < 1.0 for c in involved)
        else "fewer than two trials" if min(len(t) for t in times) < 2
        else "zero broadcast times" if claim.check != "additive" and min(map(min, times)) <= 0
        else f"{len(sizes)} sizes cannot fit a growth class"
        if claim.check == "growth" and len(sizes) < (3 if claim.growth else 2) else None
    )
    if undecided:
        return ClaimVerdict(claim, "inconclusive", detail=undecided)
    k = len(sizes)
    point = np.array([reduce(t) for t in times]).reshape(-1, k)
    boot = np.stack([bootstrap_resamples(t, _RESAMPLES, reduce=reduce) for t in times], axis=1)
    a, a_boot = point[0], boot[:, :k]
    b, b_boot = (point[1], boot[:, k:]) if claim.other else (0.0, 0.0)
    ns = np.array(sizes, dtype=float)
    at = [f"n={n}" for n in sizes]

    if claim.check == "ordering":
        return _verdict(claim, rows(a[-1] / b[-1], a_boot[:, -1] / b_boot[:, -1], at[-1:]))
    if claim.check == "ratio":
        ratio, ratio_boot = a / b, a_boot / b_boot
        spread_boot = ratio_boot.max(axis=1) / ratio_boot.min(axis=1)
        return _verdict(claim, rows(ratio, ratio_boot, at) + rows(
            ratio.max() / ratio.min(), spread_boot, ["max/min ratio"], None, claim.spread))
    if claim.check == "additive":
        unit = np.log2(ns) if claim.growth == "log n" else np.ones_like(ns)
        return _verdict(claim, rows((a - b) / unit, (a_boot - b_boot) / unit, at))

    series, series_boot = (a / b, a_boot / b_boot) if claim.other else (a, a_boot)
    found = rows(power_law_exponent(ns, series), power_law_exponent(ns, series_boot),
                 ["exponent"])
    if not claim.growth:
        return _verdict(claim, found)
    chosen = np.take(GROWTH_CANDIDATES, best_growth_index(ns, series_boot, GROWTH_CANDIDATES))
    share = float(np.isin(chosen, claim.accepted_growths()).mean())
    best = GROWTH_CANDIDATES[best_growth_index(ns, series, GROWTH_CANDIDATES)]
    detail = f"exponent; best fit {best}, admitted in {share:.0%} of resamples"
    fit = ("pass" if share >= _CONFIDENCE else "inconclusive", share - _CONFIDENCE)
    bounded = claim.low is not None or claim.high is not None
    return _verdict(claim, [fit + found[0][2:5] + (detail,)] + (found if bounded else []))
