"""Benchmark harness configuration.

The paper's claims are not reproduced here: ``tests/test_paper_claims.py``
evaluates every experiment's declared claims at small sizes, and ``repro
report`` renders the same verdicts at the paper's sizes.  What remains in
this directory:

* ``test_bench_coupling.py`` and ``test_bench_fairness.py`` check the coupling
  and fairness documents, which are not sweep cells;
* ``test_bench_extensions.py`` checks the multi-rumor and agent-churn
  extensions;
* ``run_bench.py`` gates batching, static-dynamics overhead, the warm store,
  scale and telemetry cost, each ratio a median of interleaved paired runs
  (``BENCH_batch.json``).  Per-kernel step times, graph builds and masking
  cost are ``perfbench/``'s.

Run the pytest part with ``pytest benchmarks/``.
"""
