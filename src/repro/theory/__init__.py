"""Theory layer: the paper's predictions and the probabilistic tools behind them."""

from .concentration import (
    binomial_tail_upper,
    chernoff_lower_multiplicative,
    chernoff_upper_heavy,
    chernoff_upper_multiplicative,
    expected_geometric_sum,
    geometric_sum_tail,
)
from .coupon_collector import (
    collection_time_tail_bound,
    expected_collection_time,
    expected_partial_collection_time,
    harmonic_number,
)
from .predictions import (
    BoundKind,
    GROWTH_FUNCTIONS,
    PAPER_PREDICTIONS,
    Prediction,
    growth_value,
    predictions_for,
)
from .walks import (
    expected_hitting_times,
    mixing_time_bound,
    relaxation_time,
    spectral_gap,
    stationary_distribution,
    transition_matrix,
)

__all__ = [
    "chernoff_upper_multiplicative",
    "chernoff_upper_heavy",
    "chernoff_lower_multiplicative",
    "geometric_sum_tail",
    "binomial_tail_upper",
    "expected_geometric_sum",
    "harmonic_number",
    "expected_collection_time",
    "expected_partial_collection_time",
    "collection_time_tail_bound",
    "BoundKind",
    "Prediction",
    "PAPER_PREDICTIONS",
    "predictions_for",
    "growth_value",
    "GROWTH_FUNCTIONS",
    "transition_matrix",
    "stationary_distribution",
    "spectral_gap",
    "relaxation_time",
    "mixing_time_bound",
    "expected_hitting_times",
]
