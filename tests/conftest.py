"""Shared fixtures for the test suite.

Graphs used across many tests are provided as fixtures so individual test
modules stay focused on behaviour.  All fixtures use fixed seeds: the suite
must be fully deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.graphs import (
    complete_graph,
    cycle_graph,
    double_star,
    heavy_binary_tree,
    hypercube,
    random_regular_graph,
    star,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_star():
    """A 20-leaf star (21 vertices)."""
    return star(20)


@pytest.fixture
def small_double_star():
    """A 40-vertex double star."""
    return double_star(40)


@pytest.fixture
def small_heavy_tree():
    """A 31-vertex heavy binary tree."""
    return heavy_binary_tree(31)


@pytest.fixture
def small_complete():
    """The complete graph on 16 vertices."""
    return complete_graph(16)


@pytest.fixture
def small_cycle():
    """The cycle on 12 vertices."""
    return cycle_graph(12)


@pytest.fixture
def small_hypercube():
    """The 5-dimensional hypercube (32 vertices)."""
    return hypercube(5)


@pytest.fixture
def small_regular(rng):
    """A random 6-regular graph on 48 vertices."""
    return random_regular_graph(48, 6, rng)


@pytest.fixture(scope="session")
def regular_512():
    """The random regular graph on 512 vertices (degree 2 log2 n) the
    extension scale checks share."""
    n = 512
    degree = max(4, int(2 * math.log2(n)))
    if (n * degree) % 2:
        degree += 1
    return random_regular_graph(n, degree, np.random.default_rng(17))


@pytest.fixture
def path_graph_4():
    """A 4-vertex path 0-1-2-3 built from an explicit edge list."""
    from repro.graphs import Graph

    return Graph(4, [(0, 1), (1, 2), (2, 3)], name="path4")
