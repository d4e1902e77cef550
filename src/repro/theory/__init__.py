"""Theory layer: the paper's claims as data (:mod:`repro.theory.predictions`)."""

from .predictions import (
    BoundKind,
    GROWTH_FUNCTIONS,
    PAPER_PREDICTIONS,
    Prediction,
    growth_value,
    predictions_for,
)

__all__ = [
    "BoundKind",
    "Prediction",
    "PAPER_PREDICTIONS",
    "predictions_for",
    "growth_value",
    "GROWTH_FUNCTIONS",
]
