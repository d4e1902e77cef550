"""Robustness experiments: spreading-time degradation under topology failures.

The paper's introduction and open-problems section argue that the agent-based
protocols should be the more failure-robust family: push/pull calls over a
dead link are simply lost, while agents keep walking and route around
transient failures.  These experiments make that claim measurable with the
dynamic-topology layer (:mod:`repro.graphs.dynamic`): every cell runs the
same protocols at increasing per-round Bernoulli edge-failure rates, on the
families where the paper's separations live.

Failure rates ride in the protocol specs as ``dynamics=`` kwargs, so each
(protocol, rate) pair is an ordinary registry cell: the CLI, the report
generator and the process-parallel scheduler all work on these experiments
unmodified.  Trial seeds do not depend on the failure rate, so every rate is
seed-paired with its failure-free baseline.
"""

from __future__ import annotations

from ..graphs.builders import with_case_spec
from ..graphs.regular import random_regular_graph
from ..graphs.siamese_tree import left_leaves, siamese_heavy_binary_tree
from ..graphs.star import star
from .config import ExperimentConfig, GraphCase, ProtocolSpec
from .registry import register
from .regular_graphs import regular_degree_for

__all__ = [
    "FAILURE_RATES",
    "robustness_star_experiment",
    "robustness_siamese_experiment",
    "robustness_regular_experiment",
]

#: The failure-rate axis shared by the robustness experiments: a failure-free
#: baseline, a mild and a harsh per-round Bernoulli edge-failure rate.
FAILURE_RATES = (0.0, 0.1, 0.3)


def _rate_specs(protocol: str, rates=FAILURE_RATES, **kwargs) -> tuple:
    """One :class:`ProtocolSpec` per failure rate.

    Rate 0 carries no ``dynamics`` entry at all, so the baseline cells take
    the maskless fast path and stay bit-identical to the plain experiments.
    All rates share one ``seed_label``, so trial ``t`` of every rate draws
    from the same stream — the rate axis is genuinely seed-paired.
    """
    specs = []
    for rate in rates:
        spec_kwargs = dict(kwargs)
        if rate > 0.0:
            spec_kwargs["dynamics"] = {
                "kind": "bernoulli-edges",
                "rate": rate,
                "seed": 1009,
            }
        specs.append(
            ProtocolSpec(
                protocol,
                kwargs=spec_kwargs,
                label=f"{protocol} f={rate}",
                seed_label=protocol,
            )
        )
    return tuple(specs)


@with_case_spec("star", lambda size, seed: {"num_leaves": size})
def _build_star_case(num_leaves: int, seed: int) -> GraphCase:
    return GraphCase(graph=star(num_leaves), source=1, size_parameter=num_leaves)


def robustness_star_experiment() -> ExperimentConfig:
    """Edge failures on the star: push-pull degrades ~1/(1-f), agents too."""
    return ExperimentConfig(
        experiment_id="robustness-star",
        title="Bernoulli edge failures on the star",
        paper_reference="Sections 1 and 9 (failure robustness)",
        description=(
            "Broadcast times on the n-leaf star from a leaf source while each "
            "edge independently fails for the round with probability f. "
            "Every interaction passes through the center, so both protocol "
            "families degrade by roughly the retransmission factor 1/(1-f); "
            "the point of the cell is that neither collapses."
        ),
        graph_builder=_build_star_case,
        sizes=(128, 256),
        protocols=_rate_specs("push-pull") + _rate_specs("visit-exchange"),
        trials=5,
        max_rounds=lambda n: int(60 * n),
        claim_ids=("failure-completion",),
        notes="Failure rates are seed-paired: rate f reuses the f=0 trial seeds.",
    )


@with_case_spec("siamese_heavy_binary_tree", lambda size, seed: {"tree_vertices": size})
def _build_siamese_case(tree_vertices: int, seed: int) -> GraphCase:
    graph = siamese_heavy_binary_tree(tree_vertices)
    return GraphCase(
        graph=graph,
        source=left_leaves(graph)[0],
        size_parameter=tree_vertices,
        metadata={"source_role": "left leaf"},
    )


def robustness_siamese_experiment() -> ExperimentConfig:
    """Edge failures on the siamese trees, where push is the fast protocol."""
    return ExperimentConfig(
        experiment_id="robustness-siamese",
        title="Bernoulli edge failures on siamese heavy trees",
        paper_reference="Sections 1 and 9 (failure robustness), Figure 1(d)",
        description=(
            "Broadcast times on the siamese heavy binary trees from a left "
            "leaf under per-round Bernoulli edge failures. Push's O(log n) "
            "advantage on this family (Lemma 8) survives transient failures "
            "at the cost of a constant retransmission factor."
        ),
        graph_builder=_build_siamese_case,
        sizes=(127, 255),
        protocols=_rate_specs("push") + _rate_specs("push-pull"),
        trials=5,
        max_rounds=lambda n: int(80 * n),
        claim_ids=("failure-completion",),
        notes="Failure rates are seed-paired: rate f reuses the f=0 trial seeds.",
    )


@with_case_spec(
    "random_regular_graph",
    lambda size, seed: {
        "num_vertices": size,
        "degree": regular_degree_for(size),
        "seed": seed,
    },
)
def _build_regular_case(num_vertices: int, seed: int) -> GraphCase:
    import numpy as np

    degree = regular_degree_for(num_vertices)
    graph = random_regular_graph(num_vertices, degree, np.random.default_rng(seed))
    return GraphCase(graph=graph, source=0, size_parameter=num_vertices)


def robustness_regular_experiment() -> ExperimentConfig:
    """Edge failures on d-regular graphs, the setting of Theorems 1-3."""
    return ExperimentConfig(
        experiment_id="robustness-regular",
        title="Bernoulli edge failures on random regular graphs",
        paper_reference="Sections 1 and 9 (failure robustness), Theorem 1",
        description=(
            "Broadcast times on random d-regular graphs (d = Theta(log n)) "
            "under per-round Bernoulli edge failures. Theorem 1's regime: "
            "push and visit-exchange are both logarithmic at f=0 and should "
            "degrade smoothly, not catastrophically, as f grows."
        ),
        graph_builder=_build_regular_case,
        sizes=(64, 128),
        protocols=_rate_specs("push") + _rate_specs("visit-exchange"),
        trials=5,
        max_rounds=lambda n: int(50 * n),
        claim_ids=("failure-completion",),
        notes="Failure rates are seed-paired: rate f reuses the f=0 trial seeds.",
    )


register("robustness-star", robustness_star_experiment)
register("robustness-siamese", robustness_siamese_experiment)
register("robustness-regular", robustness_regular_experiment)
