"""The scenario corpus: real-world and generative topologies, one spec API.

This package widens the reproduction beyond the paper's hand-built graph
families, in three layers:

* :mod:`~repro.scenarios.ingest` — parse edge-list/CSV/Matrix Market files
  into CSR graphs with strict duplicate/self-loop handling and a versioned,
  content-addressed ``file`` builder;
* :mod:`~repro.scenarios.generators` — vectorized power-law
  (configuration-model), stochastic-block-model and random-geometric
  families, registered with the builder registry at 2^20 scale;
* :mod:`~repro.scenarios.spec` / :mod:`~repro.scenarios.corpus` — the
  unified :func:`resolve_scenario` entry point and the YAML/JSON corpus
  manifest format that composes graph source × protocol × dynamics ×
  multi-rumor contention into one store-backed resumable sweep
  (``repro corpus run|status|report``).

:func:`resolve_dynamics` here is the public spelling of the dynamics
resolver, and :func:`resolve_store` is re-exported so scenario-driven code
needs one import surface for all three resolvers.
"""

from .corpus import (
    Corpus,
    CorpusRunSummary,
    ScenarioRunSummary,
    corpus_report,
    corpus_status,
    load_corpus,
    register_corpus,
    run_corpus,
)
from .generators import (
    powerlaw_configuration,
    random_geometric,
    stochastic_block_model,
)
from .ingest import IngestError, file_fingerprint, ingest_graph, sniff_format
from .spec import (
    ScenarioError,
    ScenarioSpec,
    graph_source_kinds,
    resolve_dynamics,
    resolve_graph_spec,
    resolve_scenario,
    resolve_store,
)

__all__ = [
    "Corpus",
    "CorpusRunSummary",
    "IngestError",
    "ScenarioError",
    "ScenarioRunSummary",
    "ScenarioSpec",
    "corpus_report",
    "corpus_status",
    "file_fingerprint",
    "graph_source_kinds",
    "ingest_graph",
    "load_corpus",
    "powerlaw_configuration",
    "random_geometric",
    "register_corpus",
    "resolve_dynamics",
    "resolve_graph_spec",
    "resolve_scenario",
    "resolve_store",
    "run_corpus",
    "sniff_format",
    "stochastic_block_model",
]
