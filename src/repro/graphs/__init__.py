"""Graph substrate: the CSR graph type and every topology used by the paper.

The paper evaluates its protocols on a handful of carefully chosen families
(Figure 1) plus general d-regular graphs.  Each family has its own module with
the construction, the vertex-role helpers the experiments need (e.g. which
vertex is the star center or the tree root), and a docstring restating the
paper's claims for it.
"""

from .graph import Graph, GraphError
from .builders import (
    builder_spec,
    builder_version,
    register_builder,
    registered_builders,
    with_case_spec,
)
from .dynamic import (
    BernoulliEdgeFailures,
    ComposedSchedule,
    MarkovEdgeChurn,
    NodeCrashes,
    PeriodicLinkFlapping,
    RoundActivity,
    StaticSchedule,
    TopologySchedule,
)
from .star import star
from .double_star import double_star
from .heavy_binary_tree import heavy_binary_tree
from .siamese_tree import siamese_heavy_binary_tree
from .cycle_stars_cliques import (
    CycleStarsLayout,
    cycle_of_stars_of_cliques,
    cycle_stars_layout,
)
from .regular import (
    circulant_graph,
    clique_cycle,
    clique_path,
    complete_graph,
    cycle_graph,
    hypercube,
    random_regular_graph,
    torus_grid,
)
from .random_graphs import (
    connected_erdos_renyi,
    erdos_renyi,
    preferential_attachment,
)
from .validation import (
    GraphReport,
    degree_histogram,
    inspect_graph,
    require_connected,
    require_degree_at_least_log,
    require_regular,
)

__all__ = [
    "Graph",
    "GraphError",
    "register_builder",
    "builder_version",
    "builder_spec",
    "registered_builders",
    "with_case_spec",
    "TopologySchedule",
    "RoundActivity",
    "StaticSchedule",
    "BernoulliEdgeFailures",
    "PeriodicLinkFlapping",
    "NodeCrashes",
    "MarkovEdgeChurn",
    "ComposedSchedule",
    "star",
    "double_star",
    "heavy_binary_tree",
    "siamese_heavy_binary_tree",
    "CycleStarsLayout",
    "cycle_of_stars_of_cliques",
    "cycle_stars_layout",
    "complete_graph",
    "cycle_graph",
    "hypercube",
    "torus_grid",
    "random_regular_graph",
    "clique_path",
    "clique_cycle",
    "circulant_graph",
    "erdos_renyi",
    "connected_erdos_renyi",
    "preferential_attachment",
    "GraphReport",
    "inspect_graph",
    "require_connected",
    "require_regular",
    "require_degree_at_least_log",
    "degree_histogram",
]
