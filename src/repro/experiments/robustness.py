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

from .config import ExperimentConfig, ProtocolSpec
from .figure1 import SIAMESE_CASE, STAR_CASE
from .registry import register
from .regular_graphs import RANDOM_REGULAR_CASE

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
        graph_builder=STAR_CASE,
        sizes=(128, 256),
        protocols=_rate_specs("push-pull") + _rate_specs("visit-exchange"),
        trials=5,
        max_rounds=lambda n: int(60 * n),
        claim_ids=("failure-completion",),
        notes="Failure rates are seed-paired: rate f reuses the f=0 trial seeds.",
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
        graph_builder=SIAMESE_CASE,
        sizes=(127, 255),
        protocols=_rate_specs("push") + _rate_specs("push-pull"),
        trials=5,
        max_rounds=lambda n: int(80 * n),
        claim_ids=("failure-completion",),
        notes="Failure rates are seed-paired: rate f reuses the f=0 trial seeds.",
    )


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
        graph_builder=RANDOM_REGULAR_CASE,
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
