"""Sweep points: every registered (experiment, size) pinned, builders picklable.

A sweep point's graph is a function of its builder spec.  The literals below
pin, for every configured size of every registered experiment at its real
case seed ``derive_seed(0, experiment_id, "graph", size)``, a digest of the
builder spec, the structural graph fingerprint and the source vertex.  A
change that moves any of them orphans the manifests and cells of existing
stores, so these literals must never be regenerated without a builder
version or case-revision bump.

The coupling and fairness documents build their graphs from the same cases
at seeds of their own; their points are pinned the same way, and each
document at default arguments by the SHA-256 of its ``to_dict()``.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.rng import derive_seed
from repro.experiments import get_experiment, list_experiment_ids
from repro.experiments.coupling_experiment import DEFAULT_COUPLING_SIZES, run_coupling_experiment
from repro.experiments.fairness_experiment import default_fairness_graphs, run_fairness_experiment
from repro.experiments.figure1 import DOUBLE_STAR_CASE, STAR_CASE
from repro.experiments.regular_graphs import RANDOM_REGULAR_CASE, regular_degree_for
from repro.graphs.double_star import double_star
from repro.graphs.regular import random_regular_graph
from repro.graphs.star import star
from repro.scenarios import resolve_scenario
from repro.store.keys import canonical_json, graph_fingerprint

PINNED_POINTS = {
    ("ablation-agent-density", 256): "917d735c28760488",
    ("ablation-agent-density", 512): "dbc3208c7a082614",
    ("ablation-agent-density", 1024): "11be63d4ffb4c92e",
    ("ablation-initial-placement", 256): "310565601346f217",
    ("ablation-initial-placement", 512): "fe99fa7f755851ee",
    ("ablation-initial-placement", 1024): "689d14fb1e8ff2a9",
    ("ablation-laziness", 256): "85d535c64fc0b226",
    ("ablation-laziness", 512): "f6667fd290c3904c",
    ("ablation-laziness", 1024): "21be2d1f13776ef5",
    ("fig1a-star", 128): "dd10cc415771ffc8",
    ("fig1a-star", 256): "85d535c64fc0b226",
    ("fig1a-star", 512): "f6667fd290c3904c",
    ("fig1a-star", 1024): "21be2d1f13776ef5",
    ("fig1b-double-star", 128): "6beb730b3aae2db9",
    ("fig1b-double-star", 256): "b6e7f5c90ac18383",
    ("fig1b-double-star", 512): "0fe5a34638601b77",
    ("fig1b-double-star", 1024): "36f2d228d226c067",
    ("fig1c-heavy-tree", 127): "8f26366e40f85794",
    ("fig1c-heavy-tree", 255): "cd8737b0feb1fd6b",
    ("fig1c-heavy-tree", 511): "d99d9fdca0f16547",
    ("fig1c-heavy-tree", 1023): "f87c3ca8340454ea",
    ("fig1d-siamese", 127): "290c4f2494981b1b",
    ("fig1d-siamese", 255): "fb72a937ed882d72",
    ("fig1d-siamese", 511): "7863e96fb5a9f601",
    ("fig1e-cycle-stars", 5): "6f6ee86773cc9d50",
    ("fig1e-cycle-stars", 7): "ad2cfe9d8fa29580",
    ("fig1e-cycle-stars", 9): "fdca091d47ae80a8",
    ("fig1e-cycle-stars", 11): "18336530419c30b5",
    ("hybrid-double-star", 128): "6beb730b3aae2db9",
    ("hybrid-double-star", 256): "b6e7f5c90ac18383",
    ("hybrid-double-star", 512): "0fe5a34638601b77",
    ("hybrid-double-star", 1024): "36f2d228d226c067",
    ("hybrid-heavy-tree", 127): "8f26366e40f85794",
    ("hybrid-heavy-tree", 255): "cd8737b0feb1fd6b",
    ("hybrid-heavy-tree", 511): "d99d9fdca0f16547",
    ("hybrid-heavy-tree", 1023): "f87c3ca8340454ea",
    ("robustness-regular", 64): "e389c00fbd267f20",
    ("robustness-regular", 128): "224943b561cd9411",
    ("robustness-siamese", 127): "290c4f2494981b1b",
    ("robustness-siamese", 255): "fb72a937ed882d72",
    ("robustness-star", 128): "dd10cc415771ffc8",
    ("robustness-star", 256): "85d535c64fc0b226",
    ("thm1-regular-hypercube", 7): "b68af82100710c07",
    ("thm1-regular-hypercube", 8): "29006b31cf755799",
    ("thm1-regular-hypercube", 9): "bec3a9244296733c",
    ("thm1-regular-hypercube", 10): "940b2dc4b59d24cc",
    ("thm1-regular-hypercube", 11): "e30cbd247b47eed7",
    ("thm1-regular-random", 128): "0ffae2b69fdc3f7d",
    ("thm1-regular-random", 256): "85d231deafdb2cf8",
    ("thm1-regular-random", 512): "037c3b631325108a",
    ("thm1-regular-random", 1024): "ebd0cf2695920150",
    ("thm1-regular-random", 2048): "f85a4fec91707576",
    ("thm1-regular-slow", 8): "43213704552634ff",
    ("thm1-regular-slow", 16): "b625e2284a62adf5",
    ("thm1-regular-slow", 32): "860cd79e7c7f0adb",
    ("thm1-regular-slow", 64): "ca0203668180cf5d",
    ("thm23-meetx-regular", 128): "11117e9b34c283d4",
    ("thm23-meetx-regular", 256): "17ad1ac3916a1811",
    ("thm23-meetx-regular", 512): "e10ca6e92afb4e42",
    ("thm23-meetx-regular", 1024): "6e9576164c8073db",
    ("thm24-25-lower", 256): "b13aeba1eaeb1a13",
    ("thm24-25-lower", 512): "54fe635a5e530018",
    ("thm24-25-lower", 1024): "9e1cae3f531e99db",
    ("thm24-25-lower", 2048): "e207a728bb38126b",
}

#: The coupling document's random regular graphs, by (size, run index).
PINNED_COUPLING_POINTS = {
    (64, 0): "04f82eb3f9598b1b",
    (64, 1): "8077dc4758b11029",
    (64, 2): "e97345182f8e7771",
    (128, 0): "4054e701187614c3",
    (128, 1): "5852f68953187422",
    (128, 2): "c7d9946d41619ab1",
    (256, 0): "7a5acc3040c3553e",
    (256, 1): "0d89c1102cec15f6",
    (256, 2): "225809d76f4edc3f",
}

#: The fairness document's three graphs at its default size 256.
PINNED_FAIRNESS_POINTS = {
    "star": (STAR_CASE, "85d535c64fc0b226"),
    "double-star": (DOUBLE_STAR_CASE, "b6e7f5c90ac18383"),
    "random-regular": (RANDOM_REGULAR_CASE, "b492b72261554d7d"),
}

#: SHA-256 of each document's ``to_dict()`` at default arguments.
PINNED_DOCUMENTS = {
    "coupling": (
        run_coupling_experiment,
        "ecb176eabe2bb6f739aa5bebeb254c986ee8f41452bfe9377ac7d6bd8542a718",
    ),
    "fairness": (
        run_fairness_experiment,
        "81b5897abd1187e0be0535c5772df741f0ac0429bd541aac27f6c5a4c2c959ef",
    ),
}


def _point_digest(builder, size: int, case_seed: int) -> str:
    """Digest of one sweep point: builder spec, graph fingerprint, source."""
    case = builder(size, case_seed)
    point = {
        "builder": builder.case_spec(size, case_seed),
        "fingerprint": graph_fingerprint(case.graph),
        "source": int(case.source),
    }
    return hashlib.sha256(canonical_json(point).encode()).hexdigest()[:16]


def test_every_registered_sweep_point_is_pinned():
    points = {
        (experiment_id, size)
        for experiment_id in list_experiment_ids()
        for size in get_experiment(experiment_id).sizes
    }
    assert points == set(PINNED_POINTS)


@pytest.mark.parametrize("experiment_id", sorted({e for e, _ in PINNED_POINTS}))
def test_sweep_points_match_their_pins(experiment_id):
    config = get_experiment(experiment_id)
    for size in config.sizes:
        case_seed = derive_seed(0, experiment_id, "graph", size)
        digest = _point_digest(config.graph_builder, size, case_seed)
        assert digest == PINNED_POINTS[(experiment_id, size)], (experiment_id, size)


def test_every_coupling_point_is_pinned():
    assert set(PINNED_COUPLING_POINTS) == {
        (size, run) for size in DEFAULT_COUPLING_SIZES for run in range(3)
    }


@pytest.mark.parametrize("size, run", sorted(PINNED_COUPLING_POINTS))
def test_coupling_points_match_their_pins(size, run):
    graph_seed = derive_seed(0, "coupling", size, run, "graph")
    digest = _point_digest(RANDOM_REGULAR_CASE, size, graph_seed)
    assert digest == PINNED_COUPLING_POINTS[(size, run)]


@pytest.mark.parametrize("label", sorted(PINNED_FAIRNESS_POINTS))
def test_fairness_points_match_their_pins(label):
    builder, pinned = PINNED_FAIRNESS_POINTS[label]
    seed = derive_seed(0, "fairness-graphs", 256)
    assert _point_digest(builder, 256, seed) == pinned


@pytest.mark.parametrize("size, run", sorted(PINNED_COUPLING_POINTS))
def test_coupling_case_builds_the_direct_constructor_graph(size, run):
    """The case graph is the one ``random_regular_graph`` gives at the same seed."""
    graph_seed = derive_seed(0, "coupling", size, run, "graph")
    direct = random_regular_graph(size, regular_degree_for(size), np.random.default_rng(graph_seed))
    case = RANDOM_REGULAR_CASE(size, graph_seed).graph
    assert graph_fingerprint(case) == graph_fingerprint(direct)


#: The constructor calls the fairness document made before it used the cases.
DIRECT_FAIRNESS_GRAPHS = {
    "star": lambda size, seed: star(size),
    "double-star": lambda size, seed: double_star(size),
    "random-regular": lambda size, seed: random_regular_graph(
        size, regular_degree_for(size), np.random.default_rng(seed)
    ),
}


@pytest.mark.parametrize("size", DEFAULT_COUPLING_SIZES)
@pytest.mark.parametrize("label", sorted(DIRECT_FAIRNESS_GRAPHS))
def test_fairness_graphs_are_the_direct_constructor_graphs(label, size):
    seed = derive_seed(0, "fairness-graphs", size)
    graph = default_fairness_graphs(size, seed)[label]
    direct = DIRECT_FAIRNESS_GRAPHS[label](size, seed)
    assert graph_fingerprint(graph) == graph_fingerprint(direct)


@pytest.mark.parametrize("name", sorted(PINNED_DOCUMENTS))
def test_documents_match_their_pins(name):
    run, pinned = PINNED_DOCUMENTS[name]
    document = canonical_json(run().to_dict()).encode()
    assert hashlib.sha256(document).hexdigest() == pinned


def _assert_survives_pickle(builder, size: int, case_seed: int) -> None:
    clone = pickle.loads(pickle.dumps(builder))
    assert clone.case_spec(size, case_seed) == builder.case_spec(size, case_seed)
    original, rebuilt = builder(size, case_seed), clone(size, case_seed)
    assert graph_fingerprint(rebuilt.graph) == graph_fingerprint(original.graph)
    assert (rebuilt.source, rebuilt.size_parameter) == (original.source, original.size_parameter)


@pytest.mark.parametrize("experiment_id", sorted({e for e, _ in PINNED_POINTS}))
def test_registered_builders_survive_pickling(experiment_id):
    config = get_experiment(experiment_id)
    size = config.sizes[0]
    _assert_survives_pickle(
        config.graph_builder, size, derive_seed(0, experiment_id, "graph", size)
    )


@pytest.mark.parametrize(
    "graph, source",
    [
        ("random-regular:degree=4", "random"),
        ("heavy-tree", "max-degree"),
        ("powerlaw:exponent=2.5,min_degree=2", "min-degree"),
    ],
)
def test_scenario_builders_survive_pickling(graph, source):
    config = resolve_scenario(
        {"name": "pickled", "graph": graph, "sizes": [63], "source": source}
    ).to_config()
    _assert_survives_pickle(config.graph_builder, 63, 12345)


def test_file_scenario_builder_survives_pickling(tmp_path):
    path = tmp_path / "ring.edges"
    path.write_text("".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
    config = resolve_scenario(
        {"name": "pickled-file", "graph": {"kind": "file", "path": str(path)}}
    ).to_config()
    _assert_survives_pickle(config.graph_builder, 1, 7)
