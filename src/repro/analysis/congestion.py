"""Analysis of coupled-run congestion (Section 5 of the paper).

The proof of Theorem 10 bounds ``T_push`` by the maximum congestion of
canonical walks in visit-exchange.  The :class:`repro.core.coupling`
machinery produces, for every vertex, the C-counter value ``C_u(t_u)`` at the
moment the vertex is informed; by Lemma 13 this dominates ``tau_u``, and by
Lemma 14 it equals the congestion of a canonical walk.  The summaries here
aggregate those per-vertex quantities over repeated coupled runs so the
report's ``coupling-congestion`` section can table them and check its claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.coupling import CoupledRunResult

__all__ = ["CongestionSummary", "summarize_coupled_runs"]


@dataclass(frozen=True)
class CongestionSummary:
    """Aggregate view of a collection of coupled push/visit-exchange runs."""

    num_runs: int
    lemma13_violation_count: int
    mean_push_time: float
    mean_visitx_time: float
    mean_broadcast_ratio: float
    max_broadcast_ratio: float
    mean_congestion_ratio: float
    max_congestion_ratio: float

    @property
    def lemma13_always_holds(self) -> bool:
        """True when no run violated ``tau_u <= C_u(t_u)`` for any vertex."""
        return self.lemma13_violation_count == 0

    def describe(self) -> str:
        """One-line human readable rendering."""
        return (
            f"runs={self.num_runs} lemma13_violations={self.lemma13_violation_count} "
            f"T_push/T_visitx mean={self.mean_broadcast_ratio:.2f} "
            f"max={self.max_broadcast_ratio:.2f}; congestion/T_visitx "
            f"mean={self.mean_congestion_ratio:.2f} max={self.max_congestion_ratio:.2f}"
        )


def summarize_coupled_runs(runs: Sequence[CoupledRunResult]) -> CongestionSummary:
    """Aggregate Lemma-13 checks and ratio statistics over coupled runs."""
    if not runs:
        raise ValueError("need at least one coupled run to summarize")
    violations = 0
    push_times: List[float] = []
    visitx_times: List[float] = []
    broadcast_ratios: List[float] = []
    congestion_ratios: List[float] = []
    for run in runs:
        violations += len(run.lemma13_violations())
        push_times.append(float(run.push_broadcast_time))
        visitx_times.append(float(run.visitx_broadcast_time))
        broadcast_ratios.append(run.broadcast_time_ratio())
        congestion_ratios.append(run.congestion_ratio())
    return CongestionSummary(
        num_runs=len(runs),
        lemma13_violation_count=violations,
        mean_push_time=float(np.mean(push_times)),
        mean_visitx_time=float(np.mean(visitx_times)),
        mean_broadcast_ratio=float(np.mean(broadcast_ratios)),
        max_broadcast_ratio=float(np.max(broadcast_ratios)),
        mean_congestion_ratio=float(np.mean(congestion_ratios)),
        max_congestion_ratio=float(np.max(congestion_ratios)),
    )
