"""Instrumentation hooks for protocol runs.

Protocols call into a small observer interface at well-defined points of a
round so that experiments can collect per-round statistics (informed counts,
edge usage for the fairness analysis, coupling traces) without the protocol
code knowing anything about what is being measured.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Observer",
    "ObserverGroup",
    "InformedCountObserver",
    "EdgeUsageObserver",
    "RoundLimitGuard",
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

    def rounds_to_fraction(self, total: int, fraction: float) -> Optional[int]:
        """First round index at which at least ``fraction * total`` vertices are informed."""
        threshold = fraction * total
        for round_index, count in enumerate(self.vertex_history):
            if count >= threshold:
                return round_index
        return None


class EdgeUsageObserver(Observer):
    """Counts how many times each edge carried information.

    Used by the fairness analysis (Section 1 of the paper): the agent-based
    protocols use every edge with the same frequency, whereas push-pull on the
    double star funnels nearly all useful traffic through the bridge edge.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    def on_run_start(self, graph, source: int) -> None:
        self._counts = Counter()

    def on_edge_used(self, u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        self._counts[key] += 1

    @property
    def counts(self) -> Dict[Tuple[int, int], int]:
        """Mapping from canonical edge to usage count."""
        return dict(self._counts)

    def total_uses(self) -> int:
        """Total number of edge uses recorded."""
        return int(sum(self._counts.values()))

    def usage_array(self, graph) -> np.ndarray:
        """Per-edge usage counts aligned with ``graph.edges()`` iteration order."""
        return np.array([self._counts.get(edge, 0) for edge in graph.edges()], dtype=np.int64)


class RoundLimitGuard(Observer):
    """Safety observer that raises if a run exceeds an absolute round limit.

    Experiments on slow protocol/graph pairs (e.g. visit-exchange on the heavy
    binary tree) use generous ``max_rounds`` values; this guard exists for unit
    tests that want a hard failure instead of a silent truncation.
    """

    def __init__(self, hard_limit: int) -> None:
        if hard_limit <= 0:
            raise ValueError("hard_limit must be positive")
        self.hard_limit = int(hard_limit)

    def on_round_end(
        self, round_index: int, informed_vertices: int, informed_agents: int
    ) -> None:
        if round_index > self.hard_limit:
            raise RuntimeError(
                f"run exceeded the hard round limit of {self.hard_limit}"
            )
