"""Regular-graph experiments: Theorems 1, 23, 24 and 25.

These experiments check the paper's regular-graph results empirically:

* ``thm1-regular-random`` and ``thm1-regular-slow`` — push and visit-exchange
  have the same asymptotic broadcast time on d-regular graphs with
  ``d = Omega(log n)``, both on a fast family (random regular graphs, where
  both are logarithmic) and on a slow family (a cycle of cliques, where both
  are polynomial).
* ``thm23-meetx-regular`` — visit-exchange is at most an additive ``O(log n)``
  slower than meet-exchange on regular graphs.
* ``thm24-25-lower`` — both agent protocols need ``Omega(log n)`` rounds on
  regular graphs of at least logarithmic degree.
"""

from __future__ import annotations

import math

from .config import CaseBuilder, ExperimentConfig, ProtocolSpec
from .registry import register

__all__ = [
    "RANDOM_REGULAR_CASE",
    "CLIQUE_CYCLE_CASE",
    "HYPERCUBE_CASE",
    "thm1_random_regular_experiment",
    "thm1_clique_cycle_experiment",
    "thm23_meetx_experiment",
    "lower_bound_experiment",
    "regular_degree_for",
]


def regular_degree_for(num_vertices: int, *, factor: float = 2.0) -> int:
    """A degree satisfying the ``d = Omega(log n)`` assumption: ``~factor * log2 n``.

    The returned degree is adjusted so that ``n * d`` is even (a d-regular
    graph exists) and ``d < n``.
    """
    n = int(num_vertices)
    degree = max(4, int(math.ceil(factor * math.log2(max(n, 2)))))
    degree = min(degree, n - 1)
    if (n * degree) % 2 != 0:
        degree += 1
    return min(degree, n - 1)


def _random_regular_params(num_vertices: int, seed: int) -> dict:
    return {"num_vertices": num_vertices, "degree": regular_degree_for(num_vertices), "seed": seed}


def _clique_cycle_params(num_cliques: int, seed: int) -> dict:
    # Clique size grows logarithmically with the total size so that the degree
    # assumption d = Omega(log n) holds along the sweep.
    total_target = num_cliques * max(8, int(2 * math.log2(max(num_cliques, 2))))
    clique_size = max(8, int(2 * math.log2(max(total_target, 2))))
    return {"num_cliques": num_cliques, "clique_size": clique_size}


#: The regular families' sweep points (source vertex 0), shared by every
#: experiment on them.
RANDOM_REGULAR_CASE = CaseBuilder("random_regular_graph", _random_regular_params)
CLIQUE_CYCLE_CASE = CaseBuilder("clique_cycle", _clique_cycle_params)
HYPERCUBE_CASE = CaseBuilder("hypercube", "dimension")


def thm1_random_regular_experiment() -> ExperimentConfig:
    """Theorem 1 on random regular graphs (the fast, logarithmic regime)."""
    return ExperimentConfig(
        experiment_id="thm1-regular-random",
        title="Push vs visit-exchange on random regular graphs (Theorem 1)",
        paper_reference="Theorem 1 (Theorems 10 and 19)",
        description=(
            "On d-regular graphs with d = Omega(log n), push and "
            "visit-exchange have the same asymptotic broadcast time. Random "
            "regular graphs with d ~ 2 log2 n realise the logarithmic regime; "
            "the measured T_push / T_visitx ratio should stay bounded by a "
            "constant across the sweep."
        ),
        graph_builder=RANDOM_REGULAR_CASE,
        sizes=(128, 256, 512, 1024, 2048),
        protocols=(
            ProtocolSpec("push"),
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
        ),
        trials=5,
        max_rounds=lambda n: int(200 * math.log2(max(n, 2))),
        claim_ids=("thm1", "thm1-trend"),
    )


def thm1_clique_cycle_experiment() -> ExperimentConfig:
    """Theorem 1 on a slow regular family (cycle of cliques, diameter-bound)."""
    return ExperimentConfig(
        experiment_id="thm1-regular-slow",
        title="Push vs visit-exchange on a cycle of cliques (Theorem 1, slow regime)",
        paper_reference="Theorem 1; the paper's path-of-d-cliques remark",
        description=(
            "A cycle of cliques joined by perfect matchings is regular with "
            "degree Theta(log n) and has broadcast time Theta(#cliques) for "
            "every protocol (the rumor travels hop by hop). Theorem 1 predicts "
            "that push and visit-exchange remain within constant factors of "
            "each other even in this polynomial-time regime."
        ),
        graph_builder=CLIQUE_CYCLE_CASE,
        sizes=(8, 16, 32, 64),
        protocols=(
            ProtocolSpec("push"),
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
        ),
        trials=5,
        max_rounds=lambda k: int(400 * k),
        claim_ids=("thm1", "thm1-slow"),
        notes="The size parameter is the number of cliques on the cycle.",
    )


def thm23_meetx_experiment() -> ExperimentConfig:
    """Theorem 23: T_visitx <= T_meetx + O(log n) on regular graphs."""
    return ExperimentConfig(
        experiment_id="thm23-meetx-regular",
        title="Visit-exchange vs meet-exchange on random regular graphs (Theorem 23)",
        paper_reference="Theorem 23",
        description=(
            "On regular graphs of at least logarithmic degree, once all agents "
            "are informed (the meet-exchange completion event) visit-exchange "
            "needs only O(log n) further rounds to cover every vertex, so "
            "T_visitx is at most T_meetx plus an additive logarithm."
        ),
        graph_builder=RANDOM_REGULAR_CASE,
        sizes=(128, 256, 512, 1024),
        protocols=(
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("meet-exchange"),
        ),
        trials=5,
        max_rounds=lambda n: int(400 * math.log2(max(n, 2))),
        claim_ids=("thm23", "thm23-visitx-exponent", "thm23-meetx-exponent"),
    )


def lower_bound_experiment() -> ExperimentConfig:
    """Theorems 24 and 25: Omega(log n) lower bounds for the agent protocols."""
    return ExperimentConfig(
        experiment_id="thm24-25-lower",
        title="Logarithmic lower bounds on regular graphs (Theorems 24 and 25)",
        paper_reference="Theorems 24 and 25",
        description=(
            "On d-regular graphs with d = Omega(log n) and O(n) agents, both "
            "visit-exchange and meet-exchange need Omega(log n) rounds: some "
            "vertices receive no agent visit at all (and some agents meet "
            "nobody) during the first c log n rounds."
        ),
        graph_builder=RANDOM_REGULAR_CASE,
        sizes=(256, 512, 1024, 2048),
        protocols=(
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("meet-exchange"),
        ),
        trials=5,
        max_rounds=lambda n: int(400 * math.log2(max(n, 2))),
        claim_ids=("thm24", "thm24-bound", "thm24-exponent", "thm25", "thm25-bound"),
    )


def thm1_hypercube_experiment() -> ExperimentConfig:
    """Theorem 1 on hypercubes (degree exactly log2 n, structured topology)."""
    return ExperimentConfig(
        experiment_id="thm1-regular-hypercube",
        title="Push vs visit-exchange on hypercubes (Theorem 1, structured family)",
        paper_reference="Theorem 1 (Theorems 10 and 19)",
        description=(
            "The d-dimensional hypercube is d-regular with d = log2 n, sitting "
            "exactly at the boundary of the theorem's degree assumption; both "
            "protocols should need Theta(log n) rounds and track each other."
        ),
        graph_builder=HYPERCUBE_CASE,
        sizes=(7, 8, 9, 10, 11),
        protocols=(
            ProtocolSpec("push"),
            ProtocolSpec("visit-exchange"),
        ),
        trials=5,
        max_rounds=lambda d: int(400 * d),
        claim_ids=("thm1",),
        notes="The size parameter is the hypercube dimension (n = 2^d).",
    )


register("thm1-regular-random", thm1_random_regular_experiment)
register("thm1-regular-slow", thm1_clique_cycle_experiment)
register("thm1-regular-hypercube", thm1_hypercube_experiment)
register("thm23-meetx-regular", thm23_meetx_experiment)
register("thm24-25-lower", lower_bound_experiment)
