"""Analysis layer: statistics, growth fitting, claim verdicts, fairness, congestion."""

from .claims import ClaimVerdict, evaluate_claim
from .congestion import CongestionSummary, summarize_coupled_runs
from .fairness import (
    FairnessReport,
    edge_usage_from_walks,
    expected_uniform_share,
    fairness_from_counts,
    fairness_from_usage,
    gini_coefficient,
)
from .scaling import (
    GrowthFit,
    best_growth_model,
    fit_growth,
    power_law_exponent,
)
from .statistics import Summary, bootstrap_ci, summarize, summarize_trials
from .tables import format_float, format_markdown_table, format_table

__all__ = [
    "Summary",
    "summarize",
    "summarize_trials",
    "bootstrap_ci",
    "GrowthFit",
    "fit_growth",
    "best_growth_model",
    "power_law_exponent",
    "ClaimVerdict",
    "evaluate_claim",
    "FairnessReport",
    "fairness_from_counts",
    "fairness_from_usage",
    "edge_usage_from_walks",
    "gini_coefficient",
    "expected_uniform_share",
    "CongestionSummary",
    "summarize_coupled_runs",
    "format_table",
    "format_markdown_table",
    "format_float",
]
