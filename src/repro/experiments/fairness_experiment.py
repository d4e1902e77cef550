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
from typing import Any, Dict, List

import numpy as np

from ..analysis.fairness import FairnessReport, edge_usage_from_walks, fairness_from_counts
from ..core.batch import run_batch
from ..core.observers import EdgeUsageObserver, ObserverGroup
from ..core.rng import derive_seed, make_rng
from ..graphs.double_star import double_star
from ..graphs.graph import Graph
from ..graphs.regular import random_regular_graph
from ..graphs.star import star
from ..store import cell_key, document_cell_payload, resolve_store
from .regular_graphs import regular_degree_for

__all__ = [
    "FairnessExperimentResult",
    "fairness_cell",
    "run_fairness_experiment",
    "default_fairness_graphs",
]


def default_fairness_graphs(size: int, seed: int) -> Dict[str, Graph]:
    """The three graphs the fairness experiment compares."""
    degree = regular_degree_for(size)
    rng = np.random.default_rng(seed)
    return {
        "star": star(size),
        "double-star": double_star(size),
        "random-regular": random_regular_graph(size, degree, rng),
    }


@dataclass
class FairnessExperimentResult:
    """Fairness reports keyed by (graph label, mechanism label)."""

    size: int
    reports: Dict[str, Dict[str, FairnessReport]] = field(default_factory=dict)

    def gini(self, graph_label: str, mechanism: str) -> float:
        """Convenience accessor for the Gini coefficient of one cell."""
        return self.reports[graph_label][mechanism].gini

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
    combined: Dict[tuple, int] = {}
    for observer in observers:
        for edge, count in observer.counts.items():
            combined[edge] = combined.get(edge, 0) + count
    return fairness_from_counts(graph, combined)


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
    store_obj = resolve_store(store)
    cell = None
    key = None
    if store_obj is not None:
        cell = fairness_cell(
            size=size,
            walk_rounds=walk_rounds,
            push_pull_trials=push_pull_trials,
            base_seed=base_seed,
        )
        key = cell_key(cell)
        if not force:
            document = store_obj.get_document(key, kind="fairness")
            if document is not None:
                return FairnessExperimentResult.from_dict(document)
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
    if store_obj is not None:
        store_obj.put_document(key, result.to_dict(), kind="fairness", cell=cell)
    return result
