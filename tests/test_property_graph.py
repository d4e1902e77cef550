"""Property-based tests (hypothesis) for the graph substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    cycle_of_stars_of_cliques,
    double_star,
    heavy_binary_tree,
    hypercube,
    random_regular_graph,
    siamese_heavy_binary_tree,
    star,
)

# Keep hypothesis examples modest: graph construction is O(n^2) for the clique
# families and the suite must stay fast.
FAST = settings(max_examples=25, deadline=None)


class TestHandshakeLemma:
    """Every generator must satisfy sum(deg) = 2|E| and produce simple graphs."""

    @FAST
    @given(st.integers(min_value=1, max_value=200))
    def test_star(self, leaves):
        graph = star(leaves)
        assert int(graph.degrees.sum()) == 2 * graph.num_edges
        assert graph.num_vertices == leaves + 1

    @FAST
    @given(st.integers(min_value=4, max_value=300))
    def test_double_star(self, n):
        graph = double_star(n)
        assert int(graph.degrees.sum()) == 2 * graph.num_edges
        assert graph.is_connected()

    @FAST
    @given(st.integers(min_value=3, max_value=200))
    def test_heavy_binary_tree(self, n):
        graph = heavy_binary_tree(n)
        assert int(graph.degrees.sum()) == 2 * graph.num_edges
        assert graph.is_connected()

    @FAST
    @given(st.integers(min_value=3, max_value=100))
    def test_siamese_tree(self, n):
        graph = siamese_heavy_binary_tree(n)
        assert graph.num_vertices == 2 * n - 1
        assert int(graph.degrees.sum()) == 2 * graph.num_edges
        assert graph.is_connected()

    @FAST
    @given(st.integers(min_value=3, max_value=8))
    def test_cycle_stars_cliques(self, k):
        graph, layout = cycle_of_stars_of_cliques(k)
        assert graph.num_vertices == k + k**2 + k**3
        assert int(graph.degrees.sum()) == 2 * graph.num_edges
        assert graph.is_connected()

    @FAST
    @given(st.integers(min_value=1, max_value=9))
    def test_hypercube(self, d):
        graph = hypercube(d)
        assert graph.num_vertices == 2**d
        assert graph.num_edges == d * 2 ** (d - 1)
        assert graph.regularity_degree() == d


class TestRandomRegularProperties:
    @FAST
    @given(
        st.integers(min_value=6, max_value=60),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_always_simple_and_regular(self, n, d, seed):
        if (n * d) % 2 == 1:
            d += 1
        if d >= n:
            d = n - 1 if ((n - 1) * n) % 2 == 0 else n - 2
        graph = random_regular_graph(n, d, np.random.default_rng(seed))
        assert graph.is_regular()
        assert graph.regularity_degree() == d
        edges = list(graph.edges())
        assert len(edges) == len(set(edges)) == n * d // 2
        assert all(u != v for u, v in edges)


class TestGraphInvariantsFromEdgeLists:
    @FAST
    @given(
        st.integers(min_value=2, max_value=30),
        st.data(),
    )
    def test_arbitrary_simple_graphs_round_trip(self, n, data):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        )
        graph = Graph(n, chosen)
        assert graph.num_edges == len(chosen)
        assert sorted(graph.edges()) == sorted(chosen)
        # Adjacency is symmetric.
        for u, v in chosen:
            assert graph.has_edge(u, v) and graph.has_edge(v, u)

    @FAST
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_bfs_reaches_exactly_the_connected_component(self, n, seed):
        rng = np.random.default_rng(seed)
        # A random spanning-tree-ish structure plus noise edges.
        edges = set()
        for v in range(1, n):
            if rng.random() < 0.8:
                edges.add((int(rng.integers(v)), v))
        graph = Graph(n, sorted(edges))
        component, stack = {0}, [0]
        while stack:
            for v in graph.neighbors(stack.pop()):
                if int(v) not in component:
                    component.add(int(v))
                    stack.append(int(v))
        distances = graph.distances_from(0)
        assert {v for v in range(n) if distances[v] >= 0} == component
        assert graph.is_connected() == (len(component) == n)
