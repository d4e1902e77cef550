"""The edge-usage fairness experiment (Section 1's "locally fair" claim).

The experiment measures, on the star, the double star and a random regular
graph:

* the per-edge traversal distribution of a stationary agent population (the
  agent protocols' "bandwidth" usage), which the paper argues is uniform over
  edges, and
* the per-edge distribution of *sampled exchanges* under push-pull (every call
  a vertex makes, informing or not), which on the double star starves the
  single bridge edge: it is selected with probability only O(1/n) per round.

The headline numbers are the Gini coefficient of the per-edge usage counts and
the maximum single-edge share of the total traffic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar, Dict, List, Tuple

from ..analysis.fairness import FairnessReport, edge_usage_from_walks, fairness_from_usage
from ..core.batch import run_batch
from ..core.observers import EdgeUsageObserver, ObserverGroup
from ..core.rng import derive_seed, make_rng
from ..graphs.graph import Graph
from ..store import cached_document, document_cell_payload
from .figure1 import DOUBLE_STAR_CASE, STAR_CASE
from .regular_graphs import RANDOM_REGULAR_CASE

__all__ = [
    "FairnessExperimentResult",
    "fairness_cell",
    "run_fairness_experiment",
    "default_fairness_graphs",
]


def default_fairness_graphs(size: int, seed: int) -> Dict[str, Graph]:
    """The three graphs the fairness experiment compares, from the shared cases."""
    return {
        "star": STAR_CASE(size, seed).graph,
        "double-star": DOUBLE_STAR_CASE(size, seed).graph,
        "random-regular": RANDOM_REGULAR_CASE(size, seed).graph,
    }


@dataclass
class FairnessExperimentResult:
    """Fairness reports keyed by (graph label, mechanism label)."""

    #: The document claims the report checks on :meth:`table_rows`.
    claim_ids: ClassVar[Tuple[str, ...]] = (
        "fairness-agents-gini", "fairness-agents-unused", "fairness-agents-bridge",
        "fairness-ppull-bridge", "fairness-ppull-regular")
    size: int
    reports: Dict[str, Dict[str, FairnessReport]] = field(default_factory=dict)

    def table_rows(self) -> List[Dict[str, object]]:
        """Rows for the report: one per (graph, mechanism)."""
        rows = []
        for graph_label in sorted(self.reports):
            for mechanism, report in sorted(self.reports[graph_label].items()):
                rows.append(
                    {
                        "graph": graph_label,
                        "mechanism": mechanism,
                        "edges": report.num_edges,
                        "total uses": report.total_uses,
                        "gini": report.gini,
                        "max edge share": report.max_share,
                        "min edge share": report.min_share,
                        "min share / uniform": report.min_share * report.num_edges,
                        "unused edges": report.unused_edges,
                    }
                )
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (stored as a ``"fairness"`` document cell)."""
        return {
            "size": int(self.size),
            "reports": {
                graph_label: {mechanism: asdict(r) for mechanism, r in cells.items()}
                for graph_label, cells in self.reports.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FairnessExperimentResult":
        """Invert :meth:`to_dict` (all reports are flat dataclasses)."""
        result = cls(size=int(payload["size"]))
        result.reports = {
            graph_label: {
                mechanism: FairnessReport(**r) for mechanism, r in cells.items()
            }
            for graph_label, cells in payload["reports"].items()
        }
        return result


def _push_pull_edge_usage(graph: Graph, source: int, seed: int, trials: int) -> FairnessReport:
    """Aggregate sampled-exchange edge usage of push-pull over several runs."""
    observers = [EdgeUsageObserver() for _ in range(trials)]
    run_batch(
        "push-pull",
        graph,
        source,
        seeds=[make_rng(derive_seed(seed, "fairness-ppull", t)) for t in range(trials)],
        observers=[ObserverGroup([observer]) for observer in observers],
        track_all_exchanges=True,
    )
    return fairness_from_usage(
        graph, sum(observer.usage_array(graph) for observer in observers)
    )


def fairness_cell(
    *,
    size: int = 256,
    walk_rounds: int = 200,
    push_pull_trials: int = 5,
    base_seed: int = 0,
) -> Dict[str, Any]:
    """The experiment's document-cell payload (hash with ``cell_key``)."""
    return document_cell_payload(
        "fairness",
        {
            "size": int(size),
            "walk_rounds": int(walk_rounds),
            "push_pull_trials": int(push_pull_trials),
            "base_seed": int(base_seed),
        },
    )


def run_fairness_experiment(
    *,
    size: int = 256,
    walk_rounds: int = 200,
    push_pull_trials: int = 5,
    base_seed: int = 0,
    store=None,
    force: bool = False,
) -> FairnessExperimentResult:
    """Measure edge-usage fairness of agents vs push-pull on three graphs.

    ``store`` / ``force`` follow the :func:`~repro.store.resolve_store`
    rules: with a store, the whole experiment is cached as one *document
    cell* keyed on its full argument set, so ``report --from-store`` can
    regenerate the fairness section with zero simulation.
    """

    def compute() -> FairnessExperimentResult:
        graphs = default_fairness_graphs(size, derive_seed(base_seed, "fairness-graphs", size))
        result = FairnessExperimentResult(size=size)
        for label, graph in graphs.items():
            agent_report = edge_usage_from_walks(
                graph,
                rounds=walk_rounds,
                seed=derive_seed(base_seed, "fairness-walks", label),
                lazy=graph.is_bipartite(),
            )
            ppull_report = _push_pull_edge_usage(
                graph,
                source=2 if graph.num_vertices > 2 else 0,
                seed=derive_seed(base_seed, "fairness-ppull", label),
                trials=push_pull_trials,
            )
            result.reports[label] = {
                "agents (all traversals)": agent_report,
                "push-pull (sampled edges)": ppull_report,
            }
        return result

    cell = fairness_cell(
        size=size, walk_rounds=walk_rounds, push_pull_trials=push_pull_trials, base_seed=base_seed
    )
    result, _ = cached_document(
        store, cell, compute, force=force, result_type=FairnessExperimentResult
    )
    return result
