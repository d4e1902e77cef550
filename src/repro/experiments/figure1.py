"""The five example-graph experiments of Figure 1 (Lemmas 2, 3, 4, 8, 9).

Each experiment sweeps the graph family over a range of sizes, runs every
protocol the paper analyses on that family, and records mean broadcast times.
The shape checks (who wins, and how the gap grows with ``n``) are the claims
named in ``claim_ids`` (:mod:`repro.theory.predictions`).
"""

from __future__ import annotations

import math

from ..graphs.cycle_stars_cliques import cycle_stars_layout
from ..graphs.heavy_binary_tree import tree_leaves
from ..graphs.siamese_tree import left_leaves
from .config import CaseBuilder, ExperimentConfig, ProtocolSpec
from .registry import register

__all__ = [
    "STAR_CASE",
    "DOUBLE_STAR_CASE",
    "HEAVY_TREE_CASE",
    "SIAMESE_CASE",
    "CYCLE_STARS_CASE",
    "fig1a_star_experiment",
    "fig1b_double_star_experiment",
    "fig1c_heavy_tree_experiment",
    "fig1d_siamese_experiment",
    "fig1e_cycle_stars_experiment",
]


def _first_leaf(graph, params, case_seed) -> int:
    return tree_leaves(graph)[0]


def _first_left_leaf(graph, params, case_seed) -> int:
    return left_leaves(graph)[0]


def _first_clique_member(graph, params, case_seed) -> int:
    return cycle_stars_layout(params["k"]).clique_members[0][0][0]


#: The Figure 1 families' sweep points, shared by every experiment on them.
#: Star: a leaf source (push is slow regardless, push-pull needs 2 rounds).
STAR_CASE = CaseBuilder("star", "num_leaves", source=1)
#: Double star: a leaf of the first star, the hardest natural starting point.
DOUBLE_STAR_CASE = CaseBuilder("double_star", "num_vertices", source=2)
#: Heavy tree: a leaf source, needed for the meet-exchange O(log n) bound.
HEAVY_TREE_CASE = CaseBuilder("heavy_binary_tree", "num_vertices", source=_first_leaf)
SIAMESE_CASE = CaseBuilder("siamese_heavy_binary_tree", "tree_vertices", source=_first_left_leaf)
CYCLE_STARS_CASE = CaseBuilder("cycle_of_stars_of_cliques", "k", source=_first_clique_member)


# ---------------------------------------------------------------------------
# Figure 1(a): the star graph
# ---------------------------------------------------------------------------
def fig1a_star_experiment() -> ExperimentConfig:
    """Lemma 2: push is Omega(n log n) on the star, all others are fast."""
    return ExperimentConfig(
        experiment_id="fig1a-star",
        title="Star graph S_n (Figure 1a)",
        paper_reference="Lemma 2, Figure 1(a)",
        description=(
            "Broadcast times on the n-leaf star from a leaf source. The star "
            "center must coupon-collect all leaves under push, while push-pull "
            "finishes in two rounds and the agent-based protocols finish in "
            "O(log n) rounds."
        ),
        graph_builder=STAR_CASE,
        sizes=(128, 256, 512, 1024),
        protocols=(
            ProtocolSpec("push"),
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("meet-exchange", kwargs={"lazy": True}),
        ),
        trials=5,
        max_rounds=lambda n: int(40 * n * math.log(max(n, 2))),
        claim_ids=("lemma2a", "lemma2a-vs-visitx", "lemma2a-vs-meetx", "lemma2b", "lemma2c",
                   "lemma2c-bound", "lemma2d", "lemma2d-bound"),
        notes="meet-exchange uses lazy walks because the star is bipartite.",
    )


# ---------------------------------------------------------------------------
# Figure 1(b): the double star
# ---------------------------------------------------------------------------
def fig1b_double_star_experiment() -> ExperimentConfig:
    """Lemma 3: push-pull is Omega(n) on the double star, agents are O(log n)."""
    return ExperimentConfig(
        experiment_id="fig1b-double-star",
        title="Double star S^2_n (Figure 1b)",
        paper_reference="Lemma 3, Figure 1(b)",
        description=(
            "Broadcast times on the double star. Push-pull must sample the "
            "single bridge edge (probability O(1/n) per round), whereas a "
            "constant fraction of the agents sits on the two centers every "
            "round, so the agent protocols cross the bridge in O(1) expected "
            "rounds — the local-fairness advantage."
        ),
        graph_builder=DOUBLE_STAR_CASE,
        sizes=(128, 256, 512, 1024),
        protocols=(
            ProtocolSpec("push"),
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("meet-exchange", kwargs={"lazy": True}),
        ),
        trials=5,
        max_rounds=lambda n: int(60 * n),
        claim_ids=("lemma3a", "lemma3a-exponent", "lemma3-separation", "lemma3-vs-visitx",
                   "lemma3-vs-meetx", "lemma3b", "lemma3b-bound", "lemma3b-exponent", "lemma3c",
                   "lemma3c-bound", "thm1-nonregular"),
        notes="meet-exchange uses lazy walks because the double star is bipartite.",
    )


# ---------------------------------------------------------------------------
# Figure 1(c): the heavy binary tree
# ---------------------------------------------------------------------------
def fig1c_heavy_tree_experiment() -> ExperimentConfig:
    """Lemma 4: push and meet-exchange are fast, visit-exchange is Omega(n)."""
    return ExperimentConfig(
        experiment_id="fig1c-heavy-tree",
        title="Heavy binary tree B_n (Figure 1c)",
        paper_reference="Lemma 4, Figure 1(c)",
        description=(
            "Broadcast times on the heavy binary tree from a leaf source. "
            "Nearly all random-walk volume sits on the leaf clique, so no "
            "agent reaches the root for Omega(n) rounds and visit-exchange is "
            "slow; push spreads through the clique and up the tree in O(log n) "
            "rounds, and meet-exchange only needs the agents to meet inside "
            "the clique."
        ),
        graph_builder=HEAVY_TREE_CASE,
        sizes=(127, 255, 511, 1023),
        protocols=(
            ProtocolSpec("push"),
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("meet-exchange"),
        ),
        trials=5,
        max_rounds=lambda n: int(80 * n),
        claim_ids=("lemma4a", "lemma4a-bound", "lemma4b", "lemma4b-vs-push", "lemma4b-vs-meetx",
                   "lemma4-separation", "lemma4c", "lemma4c-bound"),
        notes="The source must be a leaf for the meet-exchange O(log n) bound.",
    )


# ---------------------------------------------------------------------------
# Figure 1(d): siamese heavy binary trees
# ---------------------------------------------------------------------------
def fig1d_siamese_experiment() -> ExperimentConfig:
    """Lemma 8: both agent protocols are Omega(n), push is O(log n)."""
    return ExperimentConfig(
        experiment_id="fig1d-siamese",
        title="Siamese heavy binary trees D_n (Figure 1d)",
        paper_reference="Lemma 8, Figure 1(d)",
        description=(
            "Broadcast times on two heavy binary trees sharing a root. The "
            "agents split between the two leaf cliques and information can "
            "only cross through the rarely-visited root, so both agent "
            "protocols need Omega(n) rounds while push needs O(log n)."
        ),
        graph_builder=SIAMESE_CASE,
        sizes=(127, 255, 511),
        protocols=(
            ProtocolSpec("push"),
            ProtocolSpec("push-pull"),
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("meet-exchange"),
        ),
        trials=5,
        max_rounds=lambda n: int(160 * n),
        claim_ids=("lemma8a", "lemma8a-bound", "lemma8b", "lemma8b-vs-push", "lemma8c",
                   "lemma8c-vs-push"),
        notes="The size parameter is the vertex count of each tree copy.",
    )


# ---------------------------------------------------------------------------
# Figure 1(e): cycle of stars of cliques
# ---------------------------------------------------------------------------
def fig1e_cycle_stars_experiment() -> ExperimentConfig:
    """Lemma 9: visit-exchange beats meet-exchange by a log factor."""
    return ExperimentConfig(
        experiment_id="fig1e-cycle-stars",
        title="Cycle of stars of cliques (Figure 1e)",
        paper_reference="Lemma 9, Figure 1(e)",
        description=(
            "Broadcast times on the cycle-of-stars-of-cliques with parameter "
            "k = n^{1/3}. The ring vertices are not informed by meet-exchange, "
            "so information advances along the ring at rate Theta(k log k) per "
            "hop instead of Theta(k), giving E[T_meetx] = Omega(n^{2/3} log n) "
            "versus E[T_visitx] = O(n^{2/3})."
        ),
        graph_builder=CYCLE_STARS_CASE,
        sizes=(5, 7, 9, 11),
        protocols=(
            ProtocolSpec("visit-exchange"),
            ProtocolSpec("meet-exchange"),
            ProtocolSpec("push"),
            ProtocolSpec("push-pull"),
        ),
        trials=5,
        max_rounds=lambda k: int(600 * (k**2) * max(math.log(k), 1.0)),
        claim_ids=("lemma9a", "lemma9a-exponent", "lemma9a-bound", "lemma9b", "lemma9b-exponent",
                   "lemma9-order", "lemma9-gap"),
        notes=(
            "The size parameter is k; the graph has k + k^2 + k^3 vertices. "
            "push and push-pull are included for context (the graph is almost "
            "regular, so they track visit-exchange per Theorem 1)."
        ),
    )


register("fig1a-star", fig1a_star_experiment)
register("fig1b-double-star", fig1b_double_star_experiment)
register("fig1c-heavy-tree", fig1c_heavy_tree_experiment)
register("fig1d-siamese", fig1d_siamese_experiment)
register("fig1e-cycle-stars", fig1e_cycle_stars_experiment)
