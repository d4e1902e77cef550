"""Random-walk quantities on graphs: stationary measure, mixing, hitting.

The agent-based protocols are driven by independent random walks, so the
theory layer provides the standard walk quantities the paper leans on:

* the stationary distribution ``pi(v) = deg(v)/2|E|`` (initial placement of
  agents, Section 3),
* spectral mixing-time estimates (used to sanity-check the "fast on random
  regular graphs" intuition), and
* expected hitting times via the fundamental matrix.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphs.graph import Graph, GraphError

__all__ = [
    "transition_matrix",
    "stationary_distribution",
    "spectral_gap",
    "relaxation_time",
    "mixing_time_bound",
    "expected_hitting_times",
]


def transition_matrix(graph: Graph, *, lazy: bool = False) -> np.ndarray:
    """Dense transition matrix ``P`` of the (lazy) simple random walk.

    Dense matrices keep the implementation simple; the theory helpers are only
    ever invoked on the moderate graph sizes used in tests and experiments.
    """
    n = graph.num_vertices
    matrix = np.zeros((n, n), dtype=float)
    for u in range(n):
        neighbors = graph.neighbors(u)
        if neighbors.size == 0:
            raise GraphError("random walks are undefined on isolated vertices")
        matrix[u, neighbors] = 1.0 / neighbors.size
    if lazy:
        matrix = 0.5 * np.eye(n) + 0.5 * matrix
    return matrix


def stationary_distribution(graph: Graph) -> np.ndarray:
    """Stationary distribution of the simple random walk: ``deg(v) / 2|E|``."""
    return graph.stationary_distribution()


def spectral_gap(graph: Graph, *, lazy: bool = False) -> float:
    """Return ``1 - lambda_2`` where ``lambda_2`` is the second-largest eigenvalue.

    Uses the symmetrized walk matrix ``D^{-1/2} A D^{-1/2}`` so the spectrum is
    real.  A larger gap means faster mixing.
    """
    n = graph.num_vertices
    degrees = graph.degrees.astype(float)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    adjacency = np.zeros((n, n), dtype=float)
    for u in range(n):
        adjacency[u, graph.neighbors(u)] = 1.0
    normalized = adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    if lazy:
        normalized = 0.5 * np.eye(n) + 0.5 * normalized
    eigenvalues = np.linalg.eigvalsh(normalized)
    eigenvalues = np.sort(eigenvalues)[::-1]
    return float(1.0 - eigenvalues[1])


def relaxation_time(graph: Graph, *, lazy: bool = False) -> float:
    """Relaxation time ``1 / (1 - lambda_2)``."""
    gap = spectral_gap(graph, lazy=lazy)
    if gap <= 0:
        return math.inf
    return 1.0 / gap


def mixing_time_bound(graph: Graph, *, epsilon: float = 0.25, lazy: bool = True) -> float:
    """Standard upper bound ``t_mix <= t_rel * ln(1 / (epsilon * pi_min))``."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    pi_min = float(graph.stationary_distribution().min())
    t_rel = relaxation_time(graph, lazy=lazy)
    if math.isinf(t_rel):
        return math.inf
    return t_rel * math.log(1.0 / (epsilon * pi_min))


def expected_hitting_times(graph: Graph, target: int, *, lazy: bool = False) -> np.ndarray:
    """Expected hitting times ``E_u[T_target]`` for every start vertex ``u``.

    Solves the linear system ``h(u) = 1 + sum_v P(u, v) h(v)`` for ``u != target``
    with ``h(target) = 0``.
    """
    n = graph.num_vertices
    if not 0 <= target < n:
        raise GraphError("target vertex out of range")
    matrix = transition_matrix(graph, lazy=lazy)
    others = [u for u in range(n) if u != target]
    sub = matrix[np.ix_(others, others)]
    system = np.eye(len(others)) - sub
    solution = np.linalg.solve(system, np.ones(len(others)))
    hitting = np.zeros(n, dtype=float)
    for index, vertex in enumerate(others):
        hitting[vertex] = solution[index]
    return hitting
