"""The coupling/congestion experiment (Section 5, Lemmas 13 and 14).

Unlike the broadcast-time sweeps, this experiment runs the *coupled* push /
visit-exchange processes of Section 5.1 and checks the two quantities the
proof of Theorem 10 relies on:

* Lemma 13 as an exact invariant: ``tau_u <= C_u(t_u)`` for every vertex of
  every run, and
* the congestion bound empirically: ``max_u C_u(t_u) / T_visitx`` stays
  bounded by a constant across graph sizes (this is the quantity Theorem 10
  bounds by the constant ``beta``).

Both facts are claims in :data:`~repro.theory.predictions.PAPER_PREDICTIONS`
that the result declares, so the report gives a verdict for each.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar, Dict, List, Sequence, Tuple

from ..analysis.congestion import CongestionSummary, summarize_coupled_runs
from ..core.coupling import CoupledPushVisitExchange, CoupledRunResult
from ..core.rng import derive_seed
from ..store import cached_document, document_cell_payload
from .regular_graphs import RANDOM_REGULAR_CASE

__all__ = [
    "CouplingExperimentResult",
    "coupling_cell",
    "run_coupling_experiment",
    "DEFAULT_COUPLING_SIZES",
]

#: Default sweep for the coupling experiment.  The coupled simulator steps
#: agents one at a time in Python (the coupling forces per-agent decisions), so
#: the sizes are kept moderate.
DEFAULT_COUPLING_SIZES = (64, 128, 256)


@dataclass
class CouplingExperimentResult:
    """Per-size congestion summaries of the coupling experiment."""

    #: The document claims the report checks on :meth:`table_rows`.
    claim_ids: ClassVar[Tuple[str, ...]] = (
        "coupling-lemma13", "coupling-congestion", "coupling-broadcast-ratio")
    sizes: List[int] = field(default_factory=list)
    summaries: Dict[int, CongestionSummary] = field(default_factory=dict)
    runs: Dict[int, List[CoupledRunResult]] = field(default_factory=dict)

    def lemma13_always_holds(self) -> bool:
        """True if no run at any size violated Lemma 13."""
        return all(summary.lemma13_always_holds for summary in self.summaries.values())

    def max_congestion_ratio(self) -> float:
        """Largest observed ``max_u C_u(t_u) / T_visitx`` over the whole sweep."""
        return max(summary.max_congestion_ratio for summary in self.summaries.values())

    def table_rows(self) -> List[Dict[str, object]]:
        """Rows for the report: one per size."""
        rows = []
        for size in self.sizes:
            summary = self.summaries[size]
            rows.append(
                {
                    "n": size,
                    "runs": summary.num_runs,
                    "lemma13 violations": summary.lemma13_violation_count,
                    "mean T_push": summary.mean_push_time,
                    "mean T_visitx": summary.mean_visitx_time,
                    "mean T_push/T_visitx": summary.mean_broadcast_ratio,
                    "max congestion/T_visitx": summary.max_congestion_ratio,
                }
            )
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (stored as a ``"coupling"`` document cell)."""
        return {
            "sizes": [int(size) for size in self.sizes],
            "summaries": {str(size): asdict(s) for size, s in self.summaries.items()},
            "runs": {
                str(size): [run.to_dict() for run in runs]
                for size, runs in self.runs.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CouplingExperimentResult":
        """Invert :meth:`to_dict`; summaries and runs round-trip exactly."""
        result = cls()
        result.sizes = [int(size) for size in payload["sizes"]]
        result.summaries = {
            int(size): CongestionSummary(**s) for size, s in payload["summaries"].items()
        }
        result.runs = {
            int(size): [CoupledRunResult.from_dict(r) for r in runs]
            for size, runs in payload["runs"].items()
        }
        return result


def coupling_cell(
    *,
    sizes: Sequence[int] = DEFAULT_COUPLING_SIZES,
    runs_per_size: int = 3,
    base_seed: int = 0,
    agent_density: float = 1.0,
) -> Dict[str, Any]:
    """The experiment's document-cell payload (hash with ``cell_key``)."""
    return document_cell_payload(
        "coupling",
        {
            "sizes": [int(size) for size in sizes],
            "runs_per_size": int(runs_per_size),
            "base_seed": int(base_seed),
            "agent_density": float(agent_density),
        },
    )


def run_coupling_experiment(
    *,
    sizes: Sequence[int] = DEFAULT_COUPLING_SIZES,
    runs_per_size: int = 3,
    base_seed: int = 0,
    agent_density: float = 1.0,
    store=None,
    force: bool = False,
) -> CouplingExperimentResult:
    """Run the coupled processes on random regular graphs over a size sweep.

    ``store`` / ``force`` follow the :func:`~repro.store.resolve_store`
    rules: with a store, the whole experiment is cached as one *document
    cell* keyed on its full argument set, so ``report --from-store`` can
    regenerate the coupling section with zero simulation.  The experiment is
    a pure function of its arguments, so a cache hit round-trips to a result
    whose tables are identical to a recompute.
    """
    if runs_per_size < 1:
        raise ValueError("runs_per_size must be at least 1")

    def compute() -> CouplingExperimentResult:
        result = CouplingExperimentResult()
        for size in sizes:
            runs: List[CoupledRunResult] = []
            for run_index in range(runs_per_size):
                graph_seed = derive_seed(base_seed, "coupling", size, run_index, "graph")
                run_seed = derive_seed(base_seed, "coupling", size, run_index, "run")
                graph = RANDOM_REGULAR_CASE(size, graph_seed).graph
                coupled = CoupledPushVisitExchange(agent_density=agent_density)
                runs.append(coupled.run(graph, source=0, seed=run_seed))
            result.sizes.append(int(size))
            result.summaries[int(size)] = summarize_coupled_runs(runs)
            result.runs[int(size)] = runs
        return result

    cell = coupling_cell(
        sizes=sizes, runs_per_size=runs_per_size, base_seed=base_seed, agent_density=agent_density
    )
    result, _ = cached_document(
        store, cell, compute, force=force, result_type=CouplingExperimentResult
    )
    return result
