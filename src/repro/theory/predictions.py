"""The paper's claims (Lemmas 2-4, 8, 9, 13, Theorems 1, 10, 23-25), one record each.

A :class:`Prediction` names a protocol, a graph family and what its broadcast
times (or, for a document claim, its ``statistic``) must satisfy; ``check`` is
the kind:

* ``growth`` -- the best of ``GROWTH_CANDIDATES`` fitted to ``T_protocol`` (or
  ``T_protocol / T_other``) is a class ``kind`` admits (``O``: no faster than
  ``growth``, ``Omega``: no slower, ``Theta``: equal); ``low``/``high`` bound
  the power-law exponent;
* ``ordering`` -- ``low <= T_protocol / T_other <= high`` at the largest size;
* ``ratio`` -- those bounds at every size, and max/min ratio <= ``spread``;
* ``additive`` -- ``low <= (T_protocol - T_other) / u(n) <= high`` at every
  size (``T_other = 0`` without ``other``; ``u(n) = log2 n`` when ``growth``
  is ``"log n"``, else 1);
* ``completion`` -- every cell of ``protocol`` (``"*"``: all) completes at
  least a fraction ``low`` of its trials;
* ``document`` -- ``low <= statistic <= high``, a column of a coupling or
  fairness document's table, in each row whose ``graph`` / ``mechanism`` (if
  any) are ``family`` (``"any"``: all) / ``protocol``; last / max(first, 1)
  <= ``spread``.

``reduce="min"`` measures a cell by its fastest trial (w.h.p. lower bounds).
Experiments (and the document result classes) name their claims in
``claim_ids``; :mod:`repro.analysis.claims` evaluates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "BoundKind",
    "Prediction",
    "PAPER_PREDICTIONS",
    "predictions_for",
    "growth_value",
    "GROWTH_FUNCTIONS",
    "GROWTH_CANDIDATES",
]


class BoundKind(str, Enum):
    """Whether the paper's bound is an upper bound, lower bound, or tight."""

    UPPER = "O"
    LOWER = "Omega"
    TIGHT = "Theta"


#: Named growth functions used by the predictions and the fitting code,
#: slowest first (growth claims read the order).
GROWTH_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "1": lambda n: 1.0,
    "log n": lambda n: math.log(max(n, 2.0)),
    "log^2 n": lambda n: math.log(max(n, 2.0)) ** 2,
    "n^(1/3)": lambda n: n ** (1.0 / 3.0),
    "sqrt(n)": lambda n: math.sqrt(n),
    "n^(2/3)": lambda n: n ** (2.0 / 3.0),
    "n^(2/3) log n": lambda n: (n ** (2.0 / 3.0)) * math.log(max(n, 2.0)),
    "n": lambda n: float(n),
    "n log n": lambda n: n * math.log(max(n, 2.0)),
    "n^2": lambda n: float(n) ** 2,
}

#: The models the report fits and growth claims choose among by default.
GROWTH_CANDIDATES: Tuple[str, ...] = (
    "1", "log n", "log^2 n", "sqrt(n)", "n^(2/3)", "n^(2/3) log n", "n", "n log n",
)

#: The claim kinds (see the module docstring).
CHECKS = ("growth", "ordering", "ratio", "additive", "completion", "document")


def growth_value(name: str, n: float) -> float:
    """Evaluate the named growth function at ``n``."""
    try:
        return GROWTH_FUNCTIONS[name](float(n))
    except KeyError as exc:
        known = ", ".join(sorted(GROWTH_FUNCTIONS))
        raise ValueError(f"unknown growth function {name!r}; known: {known}") from exc


def _bounded(subject: str, low, high, unit: str = "", offset: str = "") -> str:
    if low is not None and high is not None:
        return f"{offset}{low:g}{unit} <= {subject} <= {offset}{high:g}{unit}"
    if low is not None:
        return f"{subject} >= {offset}{low:g}{unit}"
    return f"{subject} <= {offset}{high:g}{unit}"


@dataclass(frozen=True)
class Prediction:
    """One checkable claim (fields: module docstring); ``claim_id`` is stable."""

    claim_id: str
    source: str
    family: str
    protocol: str
    kind: BoundKind = BoundKind.TIGHT
    growth: str = ""
    notes: str = ""
    check: str = "growth"
    other: Optional[str] = None
    low: Optional[float] = None
    high: Optional[float] = None
    spread: Optional[float] = None
    reduce: str = "mean"
    statistic: str = ""

    def __post_init__(self) -> None:
        if self.check not in CHECKS or self.reduce not in ("mean", "min"):
            raise ValueError(f"claim {self.claim_id!r}: unknown check or reduce")
        if (self.check == "document") != bool(self.statistic):
            raise ValueError(f"claim {self.claim_id!r}: a statistic is for document claims")

    def evaluate(self, n: float) -> float:
        """Evaluate the growth function at ``n`` (no constant factor)."""
        return growth_value(self.growth, n)

    def accepted_growths(self) -> Tuple[str, ...]:
        """The candidate classes a growth claim's bound admits."""
        rank = list(GROWTH_FUNCTIONS).index
        side = {BoundKind.UPPER: -1, BoundKind.LOWER: 1, BoundKind.TIGHT: 0}[self.kind]
        own = rank(self.growth)
        steps = [(rank(c) > own) - (rank(c) < own) for c in GROWTH_CANDIDATES]
        return tuple(c for c, step in zip(GROWTH_CANDIDATES, steps) if step in (0, side))

    def describe(self) -> str:
        """One-line human readable statement of the claim."""
        subject = f"T_{self.protocol}"
        if self.check == "growth":
            if self.other:
                subject += f" / T_{self.other}"
            parts = [f"{subject} = {self.kind.value}({self.growth})"] if self.growth else []
            if self.low is not None or self.high is not None:
                parts.append(_bounded(f"exponent of {subject}", self.low, self.high))
            text = " and ".join(parts)
        elif self.check in ("ordering", "ratio"):
            text = _bounded(f"{subject} / T_{self.other}", self.low, self.high)
            text += " at every size" if self.check == "ratio" else " at the largest size"
            if self.spread is not None:
                text += f", max/min ratio <= {self.spread:g}"
        elif self.check == "document":
            text = _bounded(f"{self.statistic} of {self.protocol}", self.low, self.high)
            if self.spread is not None:
                text += f", last/max(first, 1) <= {self.spread:g}"
        elif self.check == "additive":
            offset = f"T_{self.other} + " if self.other else ""
            unit = " log2 n" if self.growth == "log n" else ""
            text = _bounded(subject, self.low, self.high, unit, offset)
        else:
            who = "every protocol" if self.protocol == "*" else self.protocol
            text = f"completion rate of {who} >= {self.low:g}"
        if self.reduce == "min":
            text += " (fastest trial)"
        return (
            f"[{self.claim_id}] {self.source}: {text} on {self.family}"
            + (f" ({self.notes})" if self.notes else "")
        )


_U, _L = BoundKind.UPPER, BoundKind.LOWER
_ORD, _ADD = "ordering", "additive"
_ST, _DS, _HT = "star", "double-star", "heavy-binary-tree"
_SI, _CS, _RG = "siamese-heavy-tree", "cycle-stars-cliques", "regular"
_PP, _VX, _MX, _HY = "push-pull", "visit-exchange", "meet-exchange", "hybrid-ppull-visitx"
_DOC, _EMPIRICAL = "document", "the repo's empirical bound; the paper gives no constant"
_COUPLED, _SHARE = "coupled push/visit-exchange", "min share / uniform"
_AGENTS, _PP_SAMPLED = "agents (all traversals)", "push-pull (sampled edges)"

#: Every claim of the paper's evaluation, in paper order.
PAPER_PREDICTIONS: List[Prediction] = [
    # --- Lemma 2, star graph, Fig 1(a) ---------------------------------------
    Prediction("lemma2a", "Lemma 2(a)", _ST, "push", _L, "n log n",
               "coupon collector at the center", low=0.8),
    Prediction("lemma2a-vs-visitx", "Lemma 2(a,c)", _ST, "push", check=_ORD, other=_VX, low=10),
    Prediction("lemma2a-vs-meetx", "Lemma 2(a,d)", _ST, "push", check=_ORD, other=_MX, low=10),
    Prediction("lemma2b", "Lemma 2(b)", _ST, _PP, _U, "1", "at most 2 rounds", check=_ADD, high=2),
    Prediction("lemma2c", "Lemma 2(c)", _ST, _VX, _U, "log n"),
    Prediction("lemma2c-bound", "Lemma 2(c)", _ST, _VX, _U, "log n", check=_ADD, high=6),
    Prediction("lemma2d", "Lemma 2(d)", _ST, _MX, _U, "log n", "lazy walks (bipartite graph)"),
    Prediction("lemma2d-bound", "Lemma 2(d)", _ST, _MX, _U, "log n", check=_ADD, high=6),
    # --- Lemma 3, double star, Fig 1(b) ---------------------------------------
    Prediction("lemma3a", "Lemma 3(a)", _DS, _PP, _L, "n",
               "bridge edge sampled with probability O(1/n)"),
    Prediction("lemma3a-exponent", "Lemma 3(a)", _DS, _PP, low=0.5),
    Prediction("lemma3-separation", "Lemma 3(a,b)", _DS, _PP, other=_VX, low=0.3),
    Prediction("lemma3-vs-visitx", "Lemma 3(a,b)", _DS, _PP, check=_ORD, other=_VX, low=3),
    Prediction("lemma3-vs-meetx", "Lemma 3(a,c)", _DS, _PP, check=_ORD, other=_MX, low=3),
    Prediction("lemma3b", "Lemma 3(b)", _DS, _VX, _U, "log n"),
    Prediction("lemma3b-bound", "Lemma 3(b)", _DS, _VX, _U, "log n", check=_ADD, high=6),
    Prediction("lemma3b-exponent", "Lemma 3(b)", _DS, _VX, high=0.4),
    Prediction("lemma3c", "Lemma 3(c)", _DS, _MX, _U, "log n", "lazy walks (bipartite graph)"),
    Prediction("lemma3c-bound", "Lemma 3(c)", _DS, _MX, _U, "log n", check=_ADD, high=6),
    Prediction("thm1-nonregular", "Theorem 1 (degree assumption)", _DS, "push",
               notes="push and visit-exchange part off regular graphs", other=_VX, low=0.3),
    # --- Lemma 4, heavy binary tree, Fig 1(c) ---------------------------------
    Prediction("lemma4a", "Lemma 4(a)", _HT, "push", _U, "log n"),
    Prediction("lemma4a-bound", "Lemma 4(a)", _HT, "push", _U, "log n", check=_ADD, high=6),
    Prediction("lemma4b", "Lemma 4(b)", _HT, _VX, _L, "n",
               "no agent reaches the root for Omega(n) rounds"),
    Prediction("lemma4b-vs-push", "Lemma 4(a,b)", _HT, _VX, check=_ORD, other="push", low=3),
    Prediction("lemma4b-vs-meetx", "Lemma 4(b,c)", _HT, _VX, check=_ORD, other=_MX, low=3),
    Prediction("lemma4-separation", "Lemma 4(a,b)", _HT, _VX, other="push", low=0.4),
    Prediction("lemma4c", "Lemma 4(c)", _HT, _MX, _U, "log n", "source must be a leaf"),
    Prediction("lemma4c-bound", "Lemma 4(c)", _HT, _MX, _U, "log n", check=_ADD, high=8),
    # --- Lemma 8, siamese heavy binary trees, Fig 1(d) --------------------------
    Prediction("lemma8a", "Lemma 8(a)", _SI, "push", _U, "log n"),
    Prediction("lemma8a-bound", "Lemma 8(a)", _SI, "push", _U, "log n", check=_ADD, high=8),
    Prediction("lemma8b", "Lemma 8(b)", _SI, _VX, _L, "n"),
    Prediction("lemma8b-vs-push", "Lemma 8(a,b)", _SI, _VX, check=_ORD, other="push", low=4),
    Prediction("lemma8c", "Lemma 8(c)", _SI, _MX, _L, "n",
               "information must cross the shared root"),
    Prediction("lemma8c-vs-push", "Lemma 8(a,c)", _SI, _MX, check=_ORD, other="push", low=2),
    # --- Lemma 9, cycle of stars of cliques, Fig 1(e) ---------------------------
    Prediction("lemma9a", "Lemma 9(a)", _CS, _VX, _U, "n^(2/3)"),
    Prediction("lemma9a-exponent", "Lemma 9(a)", _CS, _VX, notes="not logarithmic", low=0.25),
    Prediction("lemma9a-bound", "Lemma 9(a)", _CS, _VX, _L, "log n", check=_ADD, low=3),
    Prediction("lemma9b", "Lemma 9(b)", _CS, _MX, _L, "n^(2/3) log n"),
    Prediction("lemma9b-exponent", "Lemma 9(b)", _CS, _MX, low=0.3),
    Prediction("lemma9-order", "Lemma 9(a,b)", _CS, _MX, check=_ORD, other=_VX, low=1),
    Prediction("lemma9-gap", "Lemma 9(a,b)", _CS, _MX, other=_VX, low=0),
    # --- Theorems 1 / 10 / 19 and 23, regular graphs ----------------------------
    Prediction("thm1", "Theorem 1 (Thms 10 & 19)", _RG, "push", check="ratio", other=_VX,
               low=0.25, high=4, spread=2.5),
    Prediction("thm1-trend", "Theorem 1", _RG, "push", other=_VX, low=-0.35, high=0.35),
    Prediction("thm1-slow", "Theorem 1 (slow regime)", "clique-cycle", "push", low=0.55),
    Prediction("thm23", "Theorem 23", _RG, _VX, _U, "log n", check=_ADD, other=_MX, high=4),
    Prediction("thm23-visitx-exponent", "Theorem 23", _RG, _VX, high=0.5),
    Prediction("thm23-meetx-exponent", "Theorem 23", _RG, _MX, high=0.5),
    # --- Theorems 24 & 25, logarithmic lower bounds ------------------------------
    Prediction("thm24", "Theorem 24", _RG, _VX, _L, "log n"),
    Prediction("thm24-bound", "Theorem 24", _RG, _VX, _L, "log n", check=_ADD, low=0.5,
               reduce="min"),
    Prediction("thm24-exponent", "Theorem 24", _RG, _VX, low=0, reduce="min"),
    Prediction("thm25", "Theorem 25", _RG, _MX, _L, "log n"),
    Prediction("thm25-bound", "Theorem 25", _RG, _MX, _L, "log n", check=_ADD, low=0.5,
               reduce="min"),
    # --- Ablations, robustness and the hybrid protocol ----------------------------
    Prediction("density-order", "Section 1 (agent density)", _RG, "visitx-alpha-2", check=_ORD,
               other="visitx-alpha-0.5", high=1),
    Prediction("density-factor", "Section 1 (agent density)", _RG, "visitx-alpha-0.5",
               check=_ORD, other="visitx-alpha-2", high=4),
    Prediction("density-bound", "Section 1 (agent density)", _RG, "visitx-alpha-0.5", _U,
               "log n", check=_ADD, high=10),
    Prediction("placement-ratio", "Remark after Lemma 11", _RG, "visitx-stationary", check=_ORD,
               other="visitx-one-per-vertex", low=0.6, high=1.7),
    Prediction("laziness-ratio", "Section 3 (lazy walks)", _ST, "visitx-lazy", check=_ORD,
               other="visitx-simple", low=1, high=4),
    Prediction("failure-completion", "Sections 1 and 9", "any", "*", check="completion", low=0.9),
    Prediction("hybrid-ds-vs-ppull", "Section 1", _DS, _HY, check=_ORD, other=_PP, high=1),
    Prediction("hybrid-ds-vs-visitx", "Section 1", _DS, _HY, check=_ORD, other=_VX, high=2),
    Prediction("hybrid-tree-vs-visitx", "Section 1", _HT, _HY, check=_ORD, other=_VX, high=1),
    Prediction("hybrid-tree-vs-ppull", "Section 1", _HT, _HY, check=_ORD, other=_PP, high=2.5),
    Prediction("hybrid-bound", "Section 1", "any", _HY, _U, "log n", check=_ADD, high=8),
    # --- The Section-5 coupling and local fairness (document sections) ----------
    Prediction("coupling-lemma13", "Lemma 13", _RG, _COUPLED, notes="tau_u <= C_u(t_u), exact",
               check=_DOC, high=0, statistic="lemma13 violations"),
    Prediction("coupling-congestion", "Theorem 10", _RG, _COUPLED, notes=_EMPIRICAL, check=_DOC,
               high=15, spread=3, statistic="max congestion/T_visitx"),
    Prediction("coupling-broadcast-ratio", "Theorem 10", _RG, _COUPLED, notes=_EMPIRICAL,
               check=_DOC, low=0.2, high=5, statistic="mean T_push/T_visitx"),
    Prediction("fairness-agents-gini", "Section 1", "any", _AGENTS, notes=_EMPIRICAL, check=_DOC,
               high=0.3, statistic="gini"),
    Prediction("fairness-agents-unused", "Section 1", "any", _AGENTS, check=_DOC, high=0,
               statistic="unused edges"),
    Prediction("fairness-agents-bridge", "Section 1", _DS, _AGENTS, notes=_EMPIRICAL, check=_DOC,
               low=0.2, statistic=_SHARE),
    Prediction("fairness-ppull-bridge", "Section 1", _DS, _PP_SAMPLED, check=_DOC, high=0.1,
               notes="bridge edge sampled with probability O(1/n); " + _EMPIRICAL,
               statistic=_SHARE),
    Prediction("fairness-ppull-regular", "Section 1", "random-regular", _PP_SAMPLED,
               notes=_EMPIRICAL, check=_DOC, high=0.35, statistic="gini"),
]


def predictions_for(*, family: str = None, protocol: str = None) -> List[Prediction]:
    """Filter the paper's predictions by graph family and/or protocol."""
    selected = []
    for prediction in PAPER_PREDICTIONS:
        if family is not None and prediction.family != family:
            continue
        if protocol is not None and prediction.protocol != protocol:
            continue
        selected.append(prediction)
    return selected
