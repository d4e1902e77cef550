"""Ablation experiments for the design choices called out in DESIGN.md.

The paper's model leaves a few knobs whose effect is worth quantifying even
though the theorems are insensitive to them:

* **agent density** ``alpha = |A| / n`` (the theorems only require a linear
  number of agents; halving or doubling the density should shift the constants
  but not the growth rate),
* **initial placement** (stationary i.i.d. vs exactly one agent per vertex —
  the remark after Lemma 11 says the regular-graph results hold for both), and
* **laziness** of the walks (required for meet-exchange on bipartite graphs,
  otherwise a constant-factor slowdown).
"""

from __future__ import annotations

import math

from .config import ExperimentConfig, ProtocolSpec
from .figure1 import STAR_CASE
from .registry import register
from .regular_graphs import RANDOM_REGULAR_CASE

__all__ = [
    "agent_density_experiment",
    "initial_placement_experiment",
    "laziness_experiment",
]


def agent_density_experiment() -> ExperimentConfig:
    """Visit-exchange broadcast time as a function of the agent density alpha."""
    return ExperimentConfig(
        experiment_id="ablation-agent-density",
        title="Ablation: agent density alpha for visit-exchange",
        paper_reference="Section 1 (linear number of agents); open problems",
        description=(
            "Visit-exchange on random regular graphs with alpha in {0.5, 1, 2}. "
            "Any constant density yields the same logarithmic growth; only the "
            "constant factor changes (fewer agents, slower constants)."
        ),
        graph_builder=RANDOM_REGULAR_CASE,
        sizes=(256, 512, 1024),
        protocols=(
            ProtocolSpec("visit-exchange", kwargs={"agent_density": 0.5}, label="visitx-alpha-0.5"),
            ProtocolSpec("visit-exchange", kwargs={"agent_density": 1.0}, label="visitx-alpha-1"),
            ProtocolSpec("visit-exchange", kwargs={"agent_density": 2.0}, label="visitx-alpha-2"),
        ),
        trials=5,
        max_rounds=lambda n: int(400 * math.log2(max(n, 2))),
        claim_ids=("density-order", "density-factor", "density-bound"),
    )


def initial_placement_experiment() -> ExperimentConfig:
    """Stationary placement vs one agent per vertex (remark after Lemma 11)."""
    return ExperimentConfig(
        experiment_id="ablation-initial-placement",
        title="Ablation: stationary vs one-agent-per-vertex initial placement",
        paper_reference="Remark after Lemma 11",
        description=(
            "On regular graphs the stationary distribution is uniform, so the "
            "two initialisations should be statistically indistinguishable; "
            "the experiment confirms the broadcast-time distributions match."
        ),
        graph_builder=RANDOM_REGULAR_CASE,
        sizes=(256, 512, 1024),
        protocols=(
            ProtocolSpec("visit-exchange", label="visitx-stationary"),
            ProtocolSpec(
                "visit-exchange",
                kwargs={"one_agent_per_vertex": True},
                label="visitx-one-per-vertex",
            ),
        ),
        trials=5,
        max_rounds=lambda n: int(400 * math.log2(max(n, 2))),
        claim_ids=("placement-ratio",),
    )


def laziness_experiment() -> ExperimentConfig:
    """Lazy vs non-lazy walks for visit-exchange on a bipartite graph.

    Visit-exchange terminates either way (vertices store the rumor), so the
    star lets us isolate the constant-factor cost of laziness; meet-exchange
    is run lazily only, since without laziness it may never finish on a
    bipartite graph.
    """
    return ExperimentConfig(
        experiment_id="ablation-laziness",
        title="Ablation: lazy vs non-lazy random walks on the star",
        paper_reference="Section 3 (lazy walks on bipartite graphs)",
        description=(
            "Lazy walks halve the expected progress per round, so visit-"
            "exchange with lazy walks should be roughly twice as slow, while "
            "remaining logarithmic."
        ),
        graph_builder=STAR_CASE,
        sizes=(256, 512, 1024),
        protocols=(
            ProtocolSpec("visit-exchange", label="visitx-simple"),
            ProtocolSpec("visit-exchange", kwargs={"lazy": True}, label="visitx-lazy"),
            ProtocolSpec("meet-exchange", kwargs={"lazy": True}, label="meetx-lazy"),
        ),
        trials=5,
        max_rounds=lambda n: int(40 * n),
        claim_ids=("laziness-ratio",),
    )


register("ablation-agent-density", agent_density_experiment)
register("ablation-initial-placement", initial_placement_experiment)
register("ablation-laziness", laziness_experiment)
