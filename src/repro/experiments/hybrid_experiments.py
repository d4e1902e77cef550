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

from .config import ExperimentConfig, ProtocolSpec
from .figure1 import DOUBLE_STAR_CASE, HEAVY_TREE_CASE
from .registry import register

__all__ = ["hybrid_double_star_experiment", "hybrid_heavy_tree_experiment"]


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
        graph_builder=DOUBLE_STAR_CASE,
        sizes=(128, 256, 512, 1024),
        protocols=(
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("hybrid-ppull-visitx"),
        ),
        trials=5,
        max_rounds=lambda n: int(60 * n),
        claim_ids=("lemma3a", "lemma3b", "hybrid-ds-vs-ppull", "hybrid-ds-vs-visitx",
                   "hybrid-bound"),
    )


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
        graph_builder=HEAVY_TREE_CASE,
        sizes=(127, 255, 511, 1023),
        protocols=(
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("hybrid-ppull-visitx"),
        ),
        trials=5,
        max_rounds=lambda n: int(80 * n),
        claim_ids=("lemma4b", "hybrid-tree-vs-visitx", "hybrid-tree-vs-ppull", "hybrid-bound"),
    )


register("hybrid-double-star", hybrid_double_star_experiment)
register("hybrid-heavy-tree", hybrid_heavy_tree_experiment)
