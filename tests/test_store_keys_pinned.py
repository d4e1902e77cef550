"""Pinned store addresses.

Cell keys and sweep ids are content addresses: every artifact and journal
already in a result store is found again only if the same inputs hash to the
same hex digest.  These literals were generated once and must never move —
a change here orphans every existing store.  A deliberate semantics change
bumps :data:`repro.store.SEMANTICS_VERSION` and regenerates the literals in
the same commit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import GraphCase, ProtocolSpec
from repro.experiments.registry import get_experiment
from repro.experiments.reporting import report_fingerprint
from repro.experiments.runner import run_experiment
from repro.graphs import double_star, random_regular_graph
from repro.store import ResultStore, resolve_cell


def _regular_case():
    graph = random_regular_graph(64, 6, np.random.default_rng(5))
    return GraphCase(graph=graph, source=0, size_parameter=64)


def _double_star_case():
    return GraphCase(graph=double_star(32), source=1, size_parameter=32)


PINNED_CELLS = [
    (
        "push-plain",
        ProtocolSpec("push"),
        _regular_case,
        {},
        "7419a1183f63f847baaeb41ba07ec3fd94b0a5d5ee6311fde3222600cfcb0b71",
    ),
    (
        "visit-exchange-density",
        ProtocolSpec("visit-exchange", kwargs={"agent_density": 2.0}),
        _regular_case,
        {},
        "6bbbf5841ef63eb81599f6811657ece4eb14b75fb3d15fa5176c746125259c54",
    ),
    (
        "meet-exchange-lazy",
        ProtocolSpec("meet-exchange", kwargs={"lazy": True}),
        _double_star_case,
        {},
        "b614252037834aa36ee10a61619604138e0faf767d3d27cea6b85d70ca19632b",
    ),
    (
        "push-pull-dynamics",
        ProtocolSpec("push-pull"),
        _regular_case,
        {"dynamics": {"kind": "bernoulli-edges", "rate": 0.1, "seed": 1}},
        "b2727c571dad265d73cce5de4b06ca5bb1aff7f505d33dcbd85d18cd1fd3d910",
    ),
    (
        "hybrid-history-budget",
        ProtocolSpec("hybrid-ppull-visitx"),
        _double_star_case,
        {"max_rounds": 50, "record_history": True},
        "34aee997635f246471b5e443272ac1871823d52e7a24015f7e4c4b2c10e8d90f",
    ),
]


@pytest.mark.parametrize(
    "spec, make_case, extra, expected",
    [cell[1:] for cell in PINNED_CELLS],
    ids=[cell[0] for cell in PINNED_CELLS],
)
def test_cell_key_is_pinned(spec, make_case, extra, expected):
    plan = resolve_cell(
        spec, make_case(), trials=4, base_seed=7, experiment_id="pinned-keys", **extra
    )
    assert plan.key == expected


def test_sweep_id_is_pinned(tmp_path):
    store = ResultStore(tmp_path / "store")
    run_experiment(
        get_experiment("fig1a-star"), base_seed=0, sizes=(8, 12), trials=2, store=store
    )
    journals = sorted(path.stem for path in store.sweeps_dir.glob("*.jsonl"))
    assert journals == ["2945906c57e2e9b0"]


def test_report_fingerprint_is_pinned(tmp_path):
    store = ResultStore(tmp_path / "store")
    fingerprint = report_fingerprint(store, sections=["fig1a-star"], trials=2, scale=0.1)
    assert fingerprint == "08751c14302dc43b77c69e4a32de130eb41e88fb75fc27d86de22b6d11c93c70"
