"""Hybrid-protocol experiments.

The paper's introduction suggests that agent-based dissemination "separately
or in combination with push-pull" can improve the broadcast time.  These
experiments run the ``"hybrid-ppull-visitx"`` protocol through
:func:`~repro.core.batch.run_batch` (its round transition is
:class:`~repro.core.kernels.hybrid.HybridKernel`) on the two families where
exactly one of its constituents is slow:

* the double star, where push-pull alone is ``Omega(n)`` but the agents cross
  the bridge in ``O(1)`` expected rounds, and
* the heavy binary tree, where visit-exchange alone is ``Omega(n)`` but
  push-pull finishes in ``O(log n)`` rounds.

In both cases the hybrid should track the faster constituent up to constants.
"""

from __future__ import annotations


from ..graphs.builders import with_case_spec
from ..graphs.double_star import double_star
from ..graphs.heavy_binary_tree import heavy_binary_tree, tree_leaves
from .config import ExperimentConfig, GraphCase, ProtocolSpec
from .registry import register

__all__ = ["hybrid_double_star_experiment", "hybrid_heavy_tree_experiment"]


@with_case_spec("double_star", lambda size, seed: {"num_vertices": size})
def _build_double_star_case(num_vertices: int, seed: int) -> GraphCase:
    return GraphCase(graph=double_star(num_vertices), source=2, size_parameter=num_vertices)


def hybrid_double_star_experiment() -> ExperimentConfig:
    """Hybrid vs its constituents on the double star (agents rescue push-pull)."""
    return ExperimentConfig(
        experiment_id="hybrid-double-star",
        title="Hybrid push-pull + agents on the double star",
        paper_reference="Section 1 (combination with push-pull); Lemma 3",
        description=(
            "On the double star push-pull alone needs Omega(n) rounds while "
            "visit-exchange needs O(log n); the hybrid inherits the agents' "
            "logarithmic broadcast time."
        ),
        graph_builder=_build_double_star_case,
        sizes=(128, 256, 512, 1024),
        protocols=(
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("hybrid-ppull-visitx"),
        ),
        trials=5,
        max_rounds=lambda n: int(60 * n),
        claim_ids=("lemma3a", "lemma3b"),
    )


@with_case_spec("heavy_binary_tree", lambda size, seed: {"num_vertices": size})
def _build_heavy_tree_case(num_vertices: int, seed: int) -> GraphCase:
    graph = heavy_binary_tree(num_vertices)
    return GraphCase(graph=graph, source=tree_leaves(graph)[0], size_parameter=num_vertices)


def hybrid_heavy_tree_experiment() -> ExperimentConfig:
    """Hybrid vs its constituents on the heavy tree (push-pull rescues agents)."""
    return ExperimentConfig(
        experiment_id="hybrid-heavy-tree",
        title="Hybrid push-pull + agents on the heavy binary tree",
        paper_reference="Section 1 (combination with push-pull); Lemma 4",
        description=(
            "On the heavy binary tree visit-exchange alone needs Omega(n) "
            "rounds while push-pull needs O(log n); the hybrid inherits "
            "push-pull's logarithmic broadcast time."
        ),
        graph_builder=_build_heavy_tree_case,
        sizes=(127, 255, 511, 1023),
        protocols=(
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("hybrid-ppull-visitx"),
        ),
        trials=5,
        max_rounds=lambda n: int(80 * n),
        claim_ids=("lemma4a", "lemma4b"),
    )


register("hybrid-double-star", hybrid_double_star_experiment)
register("hybrid-heavy-tree", hybrid_heavy_tree_experiment)
