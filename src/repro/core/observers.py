"""Instrumentation hooks for protocol runs.

Protocols call into a small observer interface at well-defined points of a
round so that experiments can collect per-round statistics (informed counts,
edge usage for the fairness analysis, coupling traces) without the protocol
code knowing anything about what is being measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Observer",
    "ObserverGroup",
    "InformedCountObserver",
    "EdgeUsageObserver",
]


class Observer:
    """Base class for per-round instrumentation; all hooks are optional."""

    def on_run_start(self, graph, source: int) -> None:
        """Called once before round 0."""

    def on_round_end(
        self,
        round_index: int,
        informed_vertices: int,
        informed_agents: int,
    ) -> None:
        """Called after every round with the current informed counts."""

    def on_edge_used(self, u: int, v: int) -> None:
        """Called when a protocol sends information across edge ``{u, v}``."""

    def on_edges_used(self, us, vs) -> None:
        """Batch form of :meth:`on_edge_used` for vectorized protocols.

        ``us`` and ``vs`` are equal-length sequences of endpoints.  The default
        implementation fans out to :meth:`on_edge_used`; observers that can
        consume whole arrays may override it.
        """
        for u, v in zip(us, vs):
            self.on_edge_used(int(u), int(v))

    def on_run_end(self, broadcast_time: Optional[int]) -> None:
        """Called once when the run terminates (successfully or not)."""


class ObserverGroup(Observer):
    """Fan-out composite that forwards every hook to a list of observers.

    An empty group is falsy, which gives the kernels and the batch driver a
    no-op fast path: hot loops test the group's truth value before doing any
    per-edge bookkeeping, so uninstrumented runs pay nothing for the hooks.
    """

    def __init__(self, observers: Sequence[Observer] = ()) -> None:
        self._observers: List[Observer] = list(observers)

    def add(self, observer: Observer) -> None:
        """Register an additional observer."""
        self._observers.append(observer)

    def __iter__(self):
        return iter(self._observers)

    def __len__(self) -> int:
        return len(self._observers)

    def on_run_start(self, graph, source: int) -> None:
        for observer in self._observers:
            observer.on_run_start(graph, source)

    def on_round_end(
        self, round_index: int, informed_vertices: int, informed_agents: int
    ) -> None:
        for observer in self._observers:
            observer.on_round_end(round_index, informed_vertices, informed_agents)

    def on_edge_used(self, u: int, v: int) -> None:
        for observer in self._observers:
            observer.on_edge_used(u, v)

    def on_edges_used(self, us, vs) -> None:
        if not self._observers:
            return
        for observer in self._observers:
            observer.on_edges_used(us, vs)

    def on_run_end(self, broadcast_time: Optional[int]) -> None:
        for observer in self._observers:
            observer.on_run_end(broadcast_time)


class InformedCountObserver(Observer):
    """Records the informed-vertex and informed-agent trajectory of a run."""

    def __init__(self) -> None:
        self.vertex_history: List[int] = []
        self.agent_history: List[int] = []
        self.broadcast_time: Optional[int] = None

    def on_run_start(self, graph, source: int) -> None:
        self.vertex_history = []
        self.agent_history = []
        self.broadcast_time = None

    def on_round_end(
        self, round_index: int, informed_vertices: int, informed_agents: int
    ) -> None:
        self.vertex_history.append(informed_vertices)
        self.agent_history.append(informed_agents)

    def on_run_end(self, broadcast_time: Optional[int]) -> None:
        self.broadcast_time = broadcast_time


class EdgeUsageObserver(Observer):
    """Counts how many times each edge carried information.

    Used by the fairness analysis (Section 1 of the paper): the agent-based
    protocols use every edge with the same frequency, whereas push-pull on the
    double star funnels nearly all useful traffic through the bridge edge.
    Uses arrive as whole arrays (:meth:`on_edges_used`) and are buffered as
    canonical ``(min, max)`` pairs, folded into per-edge counts once the
    buffer grows and whenever the counts are read.
    """

    #: Buffered uses beyond which they are folded into the counts.
    _FOLD_AT = 1 << 16

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._pairs = np.empty((0, 2), dtype=np.int64)
        self._weights = np.empty(0, dtype=np.int64)
        self._pending: List[np.ndarray] = []
        self._buffered = 0

    def on_run_start(self, graph, source: int) -> None:
        self._reset()

    def on_edge_used(self, u: int, v: int) -> None:
        self.on_edges_used([u], [v])

    def on_edges_used(self, us, vs) -> None:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        self._pending.append(np.column_stack((np.minimum(us, vs), np.maximum(us, vs))))
        self._buffered += us.size
        if self._buffered >= self._FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        """Merge the buffered uses into the distinct pairs and their counts."""
        if not self._pending:
            return
        pairs = np.concatenate([self._pairs, *self._pending])
        weights = np.concatenate([self._weights, np.ones(self._buffered, dtype=np.int64)])
        self._pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
        self._weights = np.bincount(inverse.ravel(), weights=weights).astype(np.int64)
        self._pending = []
        self._buffered = 0

    @property
    def counts(self) -> Dict[Tuple[int, int], int]:
        """Mapping from canonical edge to usage count."""
        self._fold()
        return dict(zip(map(tuple, self._pairs.tolist()), self._weights.tolist()))

    def total_uses(self) -> int:
        """Total number of edge uses recorded."""
        return int(self._weights.sum()) + self._buffered

    def usage_array(self, graph) -> np.ndarray:
        """Per-edge usage counts aligned with ``graph.edges()`` iteration order."""
        self._fold()
        ids = graph.edge_ids(self._pairs[:, 0], self._pairs[:, 1])
        found = ids >= 0
        return np.bincount(
            ids[found], weights=self._weights[found], minlength=graph.num_edges
        ).astype(np.int64)

