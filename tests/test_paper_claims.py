"""The paper's claims, evaluated on every registered experiment at small sizes.

Each experiment declares its claims (``ExperimentConfig.claim_ids``, stated
once in :mod:`repro.theory.predictions`); this test runs the experiment on a
small sweep (once, shared by its claims) and evaluates every declared claim
with the same evaluator the report uses; each (experiment, claim) pair is its
own test and must pass.  The growth classes in ``UNDECIDED`` are left out:
such small sweeps cannot separate them from a neighbouring class, so they read
``inconclusive``, and a growth class without exponent bounds cannot read
``fail``, so no assertion on them could fail.  The report still evaluates them.

The coupling and fairness documents declare theirs in their result class;
each is checked on the report's default document and on a second input.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.analysis.claims import evaluate_claim
from repro.analysis.fairness import expected_uniform_share
from repro.core.results import RunResult, TrialSet
from repro.experiments import get_experiment, list_experiment_ids, run_experiment
from repro.experiments.config import ProtocolSpec
from repro.experiments.coupling_experiment import (
    CouplingExperimentResult,
    run_coupling_experiment,
)
from repro.experiments.fairness_experiment import (
    FairnessExperimentResult,
    run_fairness_experiment,
)
from repro.experiments.reporting import claim_verdicts
from repro.experiments.runner import CellResult
from repro.theory.predictions import PAPER_PREDICTIONS, BoundKind, Prediction

#: Experiment id -> (sizes, trials) of the sweep its claims are checked on.
SMALL_SWEEPS = {
    "fig1a-star": ((64, 128, 256, 512), 6),
    "fig1b-double-star": ((64, 128, 256, 512), 24),
    "fig1c-heavy-tree": ((127, 255, 511), 16),
    "fig1d-siamese": ((63, 127, 255), 30),
    "fig1e-cycle-stars": ((7, 9, 11), 10),
    "thm1-regular-random": ((128, 256, 512, 1024), 3),
    "thm1-regular-slow": ((8, 16, 32), 2),
    "thm1-regular-hypercube": ((7, 8, 9, 10), 3),
    "thm23-meetx-regular": ((128, 256, 512, 1024), 3),
    "thm24-25-lower": ((256, 512, 1024, 2048), 4),
    "ablation-agent-density": ((512,), 3),
    "ablation-initial-placement": ((512,), 4),
    "ablation-laziness": ((512,), 4),
    "robustness-star": ((64, 128), 3),
    "robustness-siamese": ((63, 127), 3),
    "robustness-regular": ((64, 128), 3),
    "hybrid-double-star": ((128, 256, 512), 3),
    "hybrid-heavy-tree": ((127, 255, 511), 3),
}

#: Growth classes these sweeps leave inconclusive (the best fit is a
#: neighbouring class, or too few resamples agree on one).
UNDECIDED = {
    "lemma3a", "lemma4a", "lemma4b", "lemma8a", "lemma8c", "lemma9b", "thm24", "thm25",
}

DECLARED = [
    (e, c) for e in list_experiment_ids() for c in get_experiment(e).claim_ids
    if c not in UNDECIDED
]


@functools.lru_cache(maxsize=None)
def small_sweep_verdicts(experiment_id):
    """Claim id -> verdict of the experiment's small sweep (run once per module)."""
    sizes, trials = SMALL_SWEEPS[experiment_id]
    result = run_experiment(get_experiment(experiment_id), sizes=sizes, trials=trials)
    return {v.claim.claim_id: v for v in claim_verdicts(result)}


def test_every_experiment_declares_known_claims():
    by_id = {p.claim_id: p for p in PAPER_PREDICTIONS}
    known = set(by_id)
    assert all(by_id[c].check == "growth" and by_id[c].low is None and by_id[c].high is None
               for c in UNDECIDED)
    assert set(SMALL_SWEEPS) == set(list_experiment_ids())
    for experiment_id in list_experiment_ids():
        declared = get_experiment(experiment_id).claim_ids
        assert declared, f"{experiment_id} declares no claim"
        assert set(declared) <= known, experiment_id


@pytest.mark.parametrize(
    "experiment_id, claim_id", DECLARED, ids=[f"{e}-{c}" for e, c in DECLARED]
)
def test_declared_claims_hold(experiment_id, claim_id):
    verdict = small_sweep_verdicts(experiment_id)[claim_id]
    assert verdict.verdict == "pass", verdict


def test_push_run_in_place_of_push_pull_fails_lemma2b():
    """Lemma 2(b) has teeth: label push as push-pull on the star and it fails."""
    config = get_experiment("fig1a-star")
    swapped = tuple(
        ProtocolSpec("push", label="push-pull") if spec.display_label == "push-pull" else spec
        for spec in config.protocols
    )
    sizes, trials = SMALL_SWEEPS["fig1a-star"]
    result = run_experiment(dataclasses.replace(config, protocols=swapped), sizes=sizes,
                            trials=trials)
    verdicts = {v.claim.claim_id: v.verdict for v in claim_verdicts(result)}
    assert verdicts["lemma2b"] == "fail"


#: Document id -> (result class, runner keyword arguments): the report's
#: default documents, and a second coupling seed at two sizes and a second
#: fairness seed with three push-pull trials.
DOCUMENTS = {
    "coupling-default": (CouplingExperimentResult, {}),
    "coupling-seed5": (CouplingExperimentResult, {"sizes": (128, 256), "base_seed": 5}),
    "fairness-default": (FairnessExperimentResult, {}),
    "fairness-seed1": (FairnessExperimentResult, {"base_seed": 1, "push_pull_trials": 3}),
}
RUNNERS = {
    CouplingExperimentResult: run_coupling_experiment,
    FairnessExperimentResult: run_fairness_experiment,
}
DOCUMENT_CLAIMS = [(d, c) for d, (kind, _) in DOCUMENTS.items() for c in kind.claim_ids]


@functools.lru_cache(maxsize=None)
def stored_document(document_id):
    """The document's ``to_dict()`` form (computed once per module)."""
    kind, kwargs = DOCUMENTS[document_id]
    return RUNNERS[kind](**kwargs).to_dict()


def document(document_id):
    """A fresh copy of the document, safe to alter."""
    return DOCUMENTS[document_id][0].from_dict(stored_document(document_id))


def document_verdict(claim_id, result):
    [claim] = [p for p in PAPER_PREDICTIONS if p.claim_id == claim_id]
    return evaluate_claim(claim, result)


@pytest.mark.parametrize(
    "document_id, claim_id", DOCUMENT_CLAIMS, ids=[f"{d}-{c}" for d, c in DOCUMENT_CLAIMS]
)
def test_document_claims_hold(document_id, claim_id):
    verdict = document_verdict(claim_id, document(document_id))
    assert verdict.verdict == "pass", verdict


class TestDocumentClaimsHaveTeeth:
    def test_a_lemma13_violation_fails_lemma13(self):
        result = document("coupling-default")
        size = result.sizes[-1]
        result.summaries[size] = dataclasses.replace(
            result.summaries[size], lemma13_violation_count=1
        )
        verdict = document_verdict("coupling-lemma13", result)
        assert (verdict.verdict, verdict.detail) == ("fail", f"n={size}")

    def test_congestion_growing_with_size_fails_theorem10(self):
        result = document("coupling-default")
        first, last = result.sizes[0], result.sizes[-1]
        grown = 3.5 * result.summaries[first].max_congestion_ratio
        result.summaries[last] = dataclasses.replace(
            result.summaries[last], max_congestion_ratio=grown
        )
        verdict = document_verdict("coupling-congestion", result)
        assert (verdict.verdict, verdict.detail) == ("fail", "last/max(first, 1)")

    def test_a_bridge_with_a_uniform_share_fails_the_bridge_claim(self):
        result = document("fairness-default")
        cells = result.reports["double-star"]
        ppull = cells["push-pull (sampled edges)"]
        cells["push-pull (sampled edges)"] = dataclasses.replace(
            ppull, min_share=expected_uniform_share(ppull.num_edges)
        )
        verdict = document_verdict("fairness-ppull-bridge", result)
        assert (verdict.verdict, verdict.detail) == ("fail", "graph=double-star")

    def test_a_document_without_the_statistic_is_inconclusive(self):
        verdict = document_verdict("fairness-agents-gini", document("coupling-default"))
        assert verdict.verdict == "inconclusive"
        result = document("fairness-default")
        del result.reports["double-star"]
        assert document_verdict("fairness-ppull-bridge", result).verdict == "inconclusive"


def cell(label, n, times):
    """A hand-built cell; ``None`` marks a trial that ran out of rounds."""
    trials = TrialSet(label, "g", n)
    for time in times:
        trials.add(RunResult(label, "g", n, n, 0, time, time or 99, time is not None))
    return CellResult("x", n, n, label, label, trials, None)


def verdict(claim, *cells):
    return evaluate_claim(claim, list(cells)).verdict


ORDERING = Prediction("o", "s", "f", "a", check="ordering", other="b", low=2)


class TestEvaluator:
    def test_an_ordering_passes_fails_or_is_undecided_by_its_interval(self):
        a_slow, a_even = [40, 42, 44, 46], [18, 19, 21, 22]
        assert verdict(ORDERING, cell("a", 64, a_slow), cell("b", 64, [10, 10, 11, 11])) == "pass"
        assert verdict(ORDERING, cell("a", 64, [9, 10, 10, 11]), cell("b", 64, [10] * 4)) == "fail"
        assert verdict(ORDERING, cell("a", 64, a_even), cell("b", 64, [9, 10, 10, 11])) == (
            "inconclusive"
        )

    def test_cells_that_cannot_decide_never_pass(self):
        fast = cell("b", 64, [1, 1, 1])
        assert verdict(ORDERING, cell("a", 64, [50, 60, None]), fast) == "inconclusive"
        assert verdict(ORDERING, cell("a", 64, [50]), cell("b", 64, [1])) == "inconclusive"
        assert verdict(ORDERING, fast) == "inconclusive"
        growth = Prediction("g", "s", "f", "a", BoundKind.UPPER, "log n")
        assert verdict(growth, cell("a", 64, [6, 6]), cell("a", 128, [7, 7])) == "inconclusive"

    def test_additive_bound_in_log2_units(self):
        claim = Prediction("t", "s", "f", "a", BoundKind.UPPER, "log n", check="additive",
                           other="b", high=1)
        assert verdict(claim, cell("a", 256, [12, 13]), cell("b", 256, [4, 5])) == "pass"
        assert verdict(claim, cell("a", 256, [20, 21]), cell("b", 256, [4, 5])) == "fail"

    def test_growth_class_passes_but_never_fails(self):
        upper = Prediction("g", "s", "f", "a", BoundKind.UPPER, "log n")
        logarithmic = [cell("a", n, [round(3 * n.bit_length())] * 2) for n in (64, 256, 1024)]
        linear = [cell("a", n, [n, n + 2]) for n in (64, 256, 1024)]
        assert verdict(upper, *logarithmic) == "pass"
        assert verdict(upper, *linear) == "inconclusive"

    def test_ratio_holds_at_every_size_and_bounds_the_spread(self):
        claim = Prediction("r", "s", "f", "a", check="ratio", other="b", low=0.5, high=4,
                           spread=2)
        flat = [cell("a", n, [2 * n, 2 * n + 2]) for n in (64, 256)]
        drifting = [cell("a", 64, [64, 66]), cell("a", 256, [900, 910])]
        base = [cell("b", n, [n, n + 1]) for n in (64, 256)]
        assert verdict(claim, *flat, *base) == "pass"
        # Every per-size ratio lies in [0.5, 4], but they drift apart by > 2.
        drift = evaluate_claim(claim, [*drifting, *base])
        assert (drift.verdict, drift.detail) == ("fail", "max/min ratio")

    def test_completion_rate_reads_every_cell_of_the_protocol(self):
        claim = Prediction("c", "s", "f", "*", check="completion", low=0.9)
        complete = cell("a", 64, [5] * 12)
        assert verdict(claim, complete, cell("b", 64, [6] * 12)) == "pass"
        assert verdict(claim, complete, cell("b", 64, [None] * 12)) == "fail"
        assert verdict(claim) == "inconclusive"

    def test_fastest_trial_reduce_ignores_slow_outliers(self):
        mean = Prediction("m", "s", "f", "a", BoundKind.UPPER, "1", check="additive", high=10)
        fastest = dataclasses.replace(mean, reduce="min")
        skewed = cell("a", 64, [4, 5, 4, 60, 70, 80])
        assert verdict(mean, skewed) == "fail"
        assert verdict(fastest, skewed) == "pass"

    def test_growth_of_a_ratio_fits_the_quotient(self):
        claim = Prediction("q", "s", "f", "a", other="b", low=0.8)
        sizes = (64, 256, 1024)
        apart = [cell("a", n, [n * 10, n * 10 + 1]) for n in sizes]
        together = [cell("a", n, [10 * n.bit_length(), 10 * n.bit_length() + 1]) for n in sizes]
        base = [cell("b", n, [n.bit_length(), n.bit_length() + 1]) for n in sizes]
        assert verdict(claim, *apart, *base) == "pass"
        assert verdict(claim, *together, *base) == "fail"
