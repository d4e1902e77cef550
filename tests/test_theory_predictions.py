"""Tests for the paper's prediction records (repro.theory.predictions)."""

from __future__ import annotations

import math

import pytest

from repro.theory.predictions import (
    BoundKind,
    GROWTH_CANDIDATES,
    GROWTH_FUNCTIONS,
    PAPER_PREDICTIONS,
    Prediction,
    growth_value,
    predictions_for,
)


class TestGrowthFunctions:
    def test_all_registered_functions_evaluate(self):
        for name in GROWTH_FUNCTIONS:
            value = growth_value(name, 1000)
            assert value > 0

    def test_specific_values(self):
        assert growth_value("1", 500) == 1.0
        assert growth_value("n", 500) == 500.0
        assert growth_value("log n", math.e**3) == pytest.approx(3.0)
        assert growth_value("n^(2/3)", 1000) == pytest.approx(100.0)
        assert growth_value("n log n", 10) == pytest.approx(10 * math.log(10))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            growth_value("n!", 10)


class TestPredictionRecords:
    def test_claim_ids_are_unique(self):
        ids = [p.claim_id for p in PAPER_PREDICTIONS]
        assert len(ids) == len(set(ids))

    def test_every_lemma_of_figure1_is_covered(self):
        ids = {p.claim_id for p in PAPER_PREDICTIONS}
        for expected in (
            "lemma2a",
            "lemma2b",
            "lemma2c",
            "lemma2d",
            "lemma3a",
            "lemma3b",
            "lemma3c",
            "lemma4a",
            "lemma4b",
            "lemma4c",
            "lemma8a",
            "lemma8b",
            "lemma8c",
            "lemma9a",
            "lemma9b",
            "thm1",
            "thm23",
            "thm24",
            "thm25",
        ):
            assert expected in ids

    def test_growth_names_are_all_registered(self):
        for prediction in PAPER_PREDICTIONS:
            assert not prediction.growth or prediction.growth in GROWTH_FUNCTIONS

    def test_relational_claims_are_not_growth_classes(self):
        by_id = {p.claim_id: p for p in PAPER_PREDICTIONS}
        assert (by_id["thm1"].check, by_id["thm1"].other) == ("ratio", "visit-exchange")
        assert (by_id["thm23"].check, by_id["thm23"].other) == ("additive", "meet-exchange")
        assert "T_visit-exchange <= T_meet-exchange + 4 log2 n" in by_id["thm23"].describe()

    def test_accepted_growths_follow_the_bound_kind(self):
        def claim(kind):
            return Prediction("x", "s", "f", "push", kind, "log n")

        assert claim(BoundKind.UPPER).accepted_growths() == ("1", "log n")
        assert claim(BoundKind.LOWER).accepted_growths() == GROWTH_CANDIDATES[1:]
        assert claim(BoundKind.TIGHT).accepted_growths() == ("log n",)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            Prediction("x", "s", "f", "push", check="vibes")

    def test_a_statistic_belongs_to_document_claims_only(self):
        with pytest.raises(ValueError):
            Prediction("x", "s", "f", "push", check="document")
        with pytest.raises(ValueError):
            Prediction("x", "s", "f", "push", check="ordering", statistic="gini")
        claim = Prediction("x", "s", "f", "m", check="document", high=0.3, spread=3,
                           statistic="gini")
        assert "gini of m <= 0.3, last/max(first, 1) <= 3 on f" in claim.describe()

    def test_describe_mentions_protocol_and_kind(self):
        prediction = PAPER_PREDICTIONS[0]
        text = prediction.describe()
        assert prediction.protocol in text
        assert prediction.kind.value in text

    def test_evaluate_uses_growth_function(self):
        prediction = Prediction(
            claim_id="x", source="s", family="f", protocol="push",
            kind=BoundKind.UPPER, growth="n",
        )
        assert prediction.evaluate(42) == 42.0


class TestFiltering:
    def test_filter_by_family(self):
        star_predictions = predictions_for(family="star")
        assert {p.claim_id for p in star_predictions} == {
            "lemma2a", "lemma2a-vs-visitx", "lemma2a-vs-meetx", "lemma2b", "lemma2c",
            "lemma2c-bound", "lemma2d", "lemma2d-bound", "laziness-ratio",
        }
        assert all(p.family == "star" for p in star_predictions)

    def test_filter_by_protocol(self):
        meetx = predictions_for(protocol="meet-exchange")
        assert all(p.protocol == "meet-exchange" for p in meetx)
        assert len(meetx) >= 4

    def test_filter_by_both(self):
        result = predictions_for(family="heavy-binary-tree", protocol="visit-exchange")
        assert {p.claim_id for p in result} == {
            "lemma4b", "lemma4b-vs-push", "lemma4b-vs-meetx", "lemma4-separation",
        }
        assert all(p.family == "heavy-binary-tree" for p in result)
        assert all(p.protocol == "visit-exchange" for p in result)

    def test_no_filter_returns_everything(self):
        assert predictions_for() == PAPER_PREDICTIONS
