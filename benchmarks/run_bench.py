"""Fixed-size benchmark of multi-trial batching in :func:`repro.core.batch.run_batch`.

Runs 50-trial sweeps at ``n = 1024`` on a random regular graph (the graph
family of the paper's Theorems 1-3) two ways — 50 one-seed ``run_batch``
calls against one 50-seed call, with the same per-trial seeds — for **all
six protocol kernels**, and writes the wall-clock times and speedups to
``BENCH_batch.json`` at the repository root.  The file is checked in so later
PRs have a perf baseline to regress against::

    PYTHONPATH=src python benchmarks/run_bench.py

Star-graph cells are measured as supplementary data: the batch advantage is
smaller on heavily skewed degree distributions, and recording that honestly
keeps the baseline useful.  Per-trial seed purity makes both ways produce
the same trials, which the sweep cells record.

A ``workers > 1`` configuration of the process-parallel cell scheduler is
also measured (a heavy-binary-tree visit-exchange sweep, the most expensive
Figure-1 style cells).  Its speedup is recorded for information alongside the
machine's CPU count — on a single-core container it is expectedly ≈ 1× or
below — and does not gate the exit code.  The acceptance criterion stays the
within-cell batching speedup on the original visit-exchange + push-pull pair,
so the number is comparable across baseline refreshes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.batch import run_batch, trial_seeds  # noqa: E402
from repro.experiments.config import (  # noqa: E402
    ExperimentConfig,
    GraphCase,
    ProtocolSpec,
)
from repro.experiments.runner import run_experiment, run_trial_set  # noqa: E402
from repro.graphs import (  # noqa: E402
    cycle_of_stars_of_cliques,
    double_star,
    heavy_binary_tree,
    hypercube,
    random_regular_graph,
    star,
    with_case_spec,
)
from repro.graphs.dynamic import StaticSchedule  # noqa: E402
from repro.graphs.heavy_binary_tree import tree_leaves  # noqa: E402
from repro.store import ResultStore  # noqa: E402

TRIALS = 50
N = 1024
BASE_SEED = 0
REPEATS = 5
WORKERS = 4
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

#: All six registry protocols; the first two are the acceptance pair that the
#: exit criterion (and cross-PR comparability) is pinned to.
PROTOCOLS = (
    "visit-exchange",
    "push-pull",
    "push",
    "pull",
    "meet-exchange",
    "hybrid-ppull-visitx",
)
ACCEPTANCE_PROTOCOLS = ("visit-exchange", "push-pull")


def sweep_cases():
    regular = random_regular_graph(N, 12, np.random.default_rng(0))
    return [GraphCase(graph=regular, source=0, size_parameter=N)]


def extra_cases():
    return [GraphCase(graph=star(N - 1), source=1, size_parameter=N)]


def _build_heavy_tree_case(size: int, seed: int) -> GraphCase:
    graph = heavy_binary_tree(size)
    return GraphCase(graph=graph, source=tree_leaves(graph)[0], size_parameter=size)


WORKERS_CONFIG = ExperimentConfig(
    experiment_id="bench-workers",
    title="Process-parallel cell scheduler benchmark",
    paper_reference="Figure 1(c)-style sweep",
    description=(
        "visit-exchange on heavy binary trees from a leaf source: the most "
        "expensive Figure-1 cells (broadcast time is Omega(n))"
    ),
    graph_builder=_build_heavy_tree_case,
    sizes=(511, 767, 1023, 1279),
    protocols=(ProtocolSpec("visit-exchange"),),
    trials=30,
)


def rss_multiplier(platform_name: str = sys.platform) -> int:
    """``ru_maxrss``-to-bytes factor: the unit is platform-dependent.

    POSIX leaves the unit unspecified; Linux (and the BSDs) report kilobytes
    while macOS reports bytes, so a blanket ``* 1024`` inflates macOS
    readings 1024-fold.
    """
    return 1 if platform_name == "darwin" else 1024


def peak_rss_bytes() -> int:
    """The process' lifetime peak resident set size, in bytes.

    The value is monotone over the process lifetime, so per-cell readings
    record "the peak observed by the time this cell finished" (cells are
    measured cheapest-first within the scale section so the reading is
    meaningful per size).
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * rss_multiplier()


def _total_rounds(trial_set) -> int:
    """Total simulated rounds across all trials of a cell."""
    return sum(int(r.rounds_executed) for r in trial_set.results)


def time_cell(spec, case, dynamics=None, *, trials=TRIALS, repeats=REPEATS):
    """Best-of-``repeats`` wall clock of one runner cell (first call doubles as warm-up)."""
    elapsed = float("inf")
    trial_set = None
    for _ in range(repeats):
        start = time.perf_counter()
        trial_set = run_trial_set(
            spec,
            case,
            trials=trials,
            base_seed=BASE_SEED,
            experiment_id="bench-batch",
            dynamics=dynamics,
        )
        elapsed = min(elapsed, time.perf_counter() - start)
    return elapsed, trial_set


def time_batches(protocol, case, seed_groups, *, repeats=REPEATS):
    """Best-of-``repeats`` wall clock of one ``run_batch`` call per seed group.

    Returns the time and the concatenated per-trial broadcast times.
    """
    elapsed = float("inf")
    times = None
    for _ in range(repeats):
        start = time.perf_counter()
        batches = [
            run_batch(protocol, case.graph, case.source, seeds=seeds) for seeds in seed_groups
        ]
        elapsed = min(elapsed, time.perf_counter() - start)
        times = np.concatenate([batch.broadcast_times for batch in batches])
    return elapsed, times


def measure_cells(cases):
    cells = []
    for case in cases:
        for protocol in PROTOCOLS:
            seeds = trial_seeds(BASE_SEED, "bench-batch", protocol, trials=TRIALS)
            single_time, single_times = time_batches(
                protocol, case, [[seed] for seed in seeds]
            )
            bat_time, bat_times = time_batches(protocol, case, [seeds])
            completed = bat_times >= 0
            cell = {
                "protocol": protocol,
                "graph": case.graph.name,
                "n": case.graph.num_vertices,
                "trials": TRIALS,
                "one_seed_calls_seconds": round(single_time, 4),
                "batched_seconds": round(bat_time, 4),
                "speedup": round(single_time / bat_time, 2),
                "batched_mean_time": (
                    float(bat_times[completed].mean()) if completed.any() else None
                ),
                "batched_completion_rate": float(completed.mean()),
                "results_identical": single_times.tolist() == bat_times.tolist(),
                "peak_rss_bytes": peak_rss_bytes(),
            }
            cells.append(cell)
            print(
                f"{protocol:20s} {case.graph.name:28s} "
                f"{TRIALS} x 1 seed {single_time * 1000:8.1f} ms   "
                f"1 x {TRIALS} seeds {bat_time * 1000:7.1f} ms   "
                f"speedup {cell['speedup']:5.2f}x"
            )
    return cells


def measure_dynamics(case):
    """Overhead of the dynamic-topology layer on the acceptance pair.

    Four configurations of the same cell:

    * no dynamics (the reference);
    * a *static all-active* schedule with fully materialized masks — this is
      the acceptance cell.  ``DynamicsRuntime`` detects the all-active round
      and hands the kernels the maskless fast path, so what is measured here
      is the whole static-schedule overhead as a user experiences it (one
      mask expansion + one ``all()`` check per run, identity-cached per
      round), and it must stay < 15% with bit-identical results;
    * a static schedule with a single edge down — the cheapest schedule that
      cannot collapse, so every round pays the real per-sample masking
      gathers.  Recorded as ``masked_overhead`` (informational: it tracks
      the cost of the masking machinery itself, which the collapsed static
      cell deliberately avoids);
    * a Bernoulli failure schedule (informational: adds per-round mask
      generation; its broadcast times legitimately differ).
    """
    graph = case.graph
    all_active = StaticSchedule(
        edge_state=np.ones(graph.num_edges, dtype=bool),
        vertex_state=np.ones(graph.num_vertices, dtype=bool),
    )
    # One arbitrary down edge keeps the masks materialized every round while
    # perturbing the process as little as possible.
    one_down = StaticSchedule(down_edges=[(0, int(graph.neighbors(0)[0]))])
    cells = []
    for protocol in ACCEPTANCE_PROTOCOLS:
        spec = ProtocolSpec(protocol)
        plain_time, plain_trials = time_cell(spec, case)
        static_time, static_trials = time_cell(spec, case, dynamics=all_active)
        masked_time, _ = time_cell(spec, case, dynamics=one_down)
        bernoulli_time, _ = time_cell(
            spec,
            case,
            dynamics={"kind": "bernoulli-edges", "rate": 0.1, "seed": 5},
        )
        overhead = static_time / plain_time - 1.0
        cell = {
            "protocol": protocol,
            "graph": graph.name,
            "n": graph.num_vertices,
            "trials": TRIALS,
            "plain_seconds": round(plain_time, 4),
            "static_masked_seconds": round(static_time, 4),
            "one_edge_down_seconds": round(masked_time, 4),
            "bernoulli_seconds": round(bernoulli_time, 4),
            "static_overhead": round(overhead, 4),
            "masked_overhead": round(masked_time / plain_time - 1.0, 4),
            "static_results_identical": (
                plain_trials.broadcast_times() == static_trials.broadcast_times()
            ),
            "rounds_per_second": round(_total_rounds(plain_trials) / plain_time, 1),
            "peak_rss_bytes": peak_rss_bytes(),
        }
        cells.append(cell)
        print(
            f"{protocol:20s} {'dynamics overhead':28s} "
            f"plain {plain_time * 1000:7.1f} ms   static "
            f"{static_time * 1000:7.1f} ms ({overhead * 100:+5.1f}%)   masked "
            f"{masked_time * 1000:7.1f} ms ({cell['masked_overhead'] * 100:+5.1f}%)   "
            f"bernoulli {bernoulli_time * 1000:7.1f} ms"
        )
    return cells


@with_case_spec("star", lambda size, seed: {"num_leaves": size})
def _build_star_case(size: int, seed: int) -> GraphCase:
    return GraphCase(graph=star(size), source=1, size_parameter=size)


STORE_CONFIG = ExperimentConfig(
    experiment_id="bench-store",
    title="Result-store cold/warm benchmark",
    paper_reference="Figure 1(a)-style sweep",
    description=(
        "push on star graphs from a leaf source (Theta(n log n) broadcast "
        "time, so the cells are simulation-dominated), run cold (empty "
        "store) and warm (fully cached)"
    ),
    graph_builder=_build_star_case,
    sizes=(511, 1023),
    protocols=(ProtocolSpec("push"),),
    trials=30,
)


def measure_store():
    """Cold vs. warm sweep through the content-addressed result store.

    The cold run executes (and persists) every cell of a Figure-1-style
    sweep; the warm runs (best of ``REPEATS``) must execute **zero**
    simulation cells — and, via the journaled builder manifest, **zero**
    graph constructions — and return a bit-identical ``ExperimentResult``.
    The acceptance threshold is warm >= 10x faster than cold — the warm path
    is key derivation plus NPZ/JSON decoding, so on simulation-dominated
    cells it lands orders of magnitude beyond the gate.  The warm-report
    timing (``result_from_store`` over the same sweep, best of ``REPEATS``)
    records the latency floor of the zero-compute report path.
    """
    from repro.experiments.reporting import result_from_store
    from repro.graphs.graph import Graph

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "store")
        start = time.perf_counter()
        cold = run_experiment(STORE_CONFIG, base_seed=BASE_SEED, store=store)
        cold_seconds = time.perf_counter() - start
        warm_seconds = float("inf")
        warm = None
        constructions_before = Graph.construction_count
        for _ in range(REPEATS):
            start = time.perf_counter()
            warm = run_experiment(STORE_CONFIG, base_seed=BASE_SEED, store=store)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
        warm_constructions = Graph.construction_count - constructions_before
        report_seconds = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            result_from_store(STORE_CONFIG, store, base_seed=BASE_SEED)
            report_seconds = min(report_seconds, time.perf_counter() - start)
        statuses = [c.trials.store_status[0] for c in warm.cells]
        identical = [c.trials for c in warm.cells] == [c.trials for c in cold.cells]
        cell = {
            "experiment": STORE_CONFIG.experiment_id,
            "sizes": list(STORE_CONFIG.sizes),
            "trials": STORE_CONFIG.trials,
            "protocols": [s.name for s in STORE_CONFIG.protocols],
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_speedup": round(cold_seconds / warm_seconds, 2),
            "warm_cells_computed": statuses.count("computed"),
            "warm_graph_constructions": warm_constructions,
            "warm_report_seconds": round(report_seconds, 4),
            "warm_results_identical_to_cold": identical,
        }
        print(
            f"{'store cold/warm':20s} {'star push x2 cells':28s} "
            f"cold {cold_seconds * 1000:7.1f} ms   warm {warm_seconds * 1000:7.1f} ms   "
            f"speedup {cell['warm_speedup']:7.2f}x   "
            f"recomputed {cell['warm_cells_computed']} cells   "
            f"rebuilt {cell['warm_graph_constructions']} graphs   "
            f"report {report_seconds * 1000:6.1f} ms"
        )
        return cell


def measure_workers():
    """Time the same multi-cell sweep serially and on the process pool."""
    start = time.perf_counter()
    serial = run_experiment(WORKERS_CONFIG, base_seed=BASE_SEED)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_experiment(WORKERS_CONFIG, base_seed=BASE_SEED, workers=WORKERS)
    parallel_seconds = time.perf_counter() - start
    identical = [c.mean_time for c in serial.cells] == [
        c.mean_time for c in parallel.cells
    ]
    cell = {
        "experiment": WORKERS_CONFIG.experiment_id,
        "sizes": list(WORKERS_CONFIG.sizes),
        "trials": WORKERS_CONFIG.trials,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "results_identical_to_serial": identical,
    }
    print(
        f"{'workers sweep':20s} {'heavy_binary_tree x4':28s} "
        f"serial {serial_seconds * 1000:6.1f} ms   workers={WORKERS} "
        f"{parallel_seconds * 1000:7.1f} ms   speedup {cell['speedup']:5.2f}x "
        f"(cpus: {cell['cpu_count']})"
    )
    return cell


#: Protocols of the scale curve: one vertex protocol (push, sparse-frontier
#: tier) and one agent protocol (visit-exchange, agent-proportional already).
SCALE_PROTOCOLS = ("push", "visit-exchange")
SCALE_MIN_N = 1 << 10
SCALE_MAX_N = 1 << 20
SCALE_DEGREE = 12
#: Minimum batched rounds/second at the largest scale size for the gate.  The
#: bound is deliberately conservative (a 2^20-vertex push round is ~1M draws);
#: it exists to catch order-of-magnitude regressions, not small drift.
SCALE_MIN_ROUNDS_PER_SECOND = 1.0


def _scale_trials(n: int) -> int:
    """Trial count per scale cell, shrinking with n to bound memory and time."""
    return max(4, min(32, (1 << 22) // n))


def measure_scale(max_n: int = SCALE_MAX_N):
    """Rounds/sec and peak RSS across n = 2^10 .. ``max_n`` (kernel tier curve).

    Random 12-regular graphs (the family of Theorems 1-3) on the two
    representative protocols of the two kernel shapes.  The sparse-frontier
    tier engages automatically above the ``REPRO_SPARSE_MIN_N`` threshold;
    the resolved frontier mode is recorded per cell so the curve documents
    what actually ran.  The
    graph build uses ``max_attempts=1``: a 12-regular pairing is essentially
    never simple, so the benchmark goes straight to the vectorized repair
    path instead of burning 200 doomed shuffles per size.
    """
    cells = []
    n = SCALE_MIN_N
    while n <= max_n:
        graph = random_regular_graph(
            n, SCALE_DEGREE, np.random.default_rng(0), max_attempts=1
        )
        case = GraphCase(graph=graph, source=0, size_parameter=n)
        trials = _scale_trials(n)
        for protocol in SCALE_PROTOCOLS:
            spec = ProtocolSpec(protocol)
            repeats = 3 if n <= (1 << 16) else 1
            elapsed, trial_set = time_cell(spec, case, trials=trials, repeats=repeats)
            rounds = _total_rounds(trial_set)
            cell = {
                "protocol": protocol,
                "graph": graph.name,
                "n": n,
                "trials": trials,
                "seconds": round(elapsed, 4),
                "rounds": rounds,
                "rounds_per_second": round(rounds / elapsed, 1),
                "mean_time": trial_set.mean_broadcast_time(),
                "completion_rate": trial_set.completion_rate,
                "frontier": trial_set.results[0].metadata.get("frontier", None),
                "peak_rss_bytes": peak_rss_bytes(),
            }
            cells.append(cell)
            print(
                f"{protocol:20s} n=2^{n.bit_length() - 1:<3d} {trials:3d} trials   "
                f"{elapsed * 1000:9.1f} ms   {cell['rounds_per_second']:9.1f} rounds/s   "
                f"rss {cell['peak_rss_bytes'] / 2**20:7.0f} MiB   "
                f"frontier={cell['frontier']}"
            )
        n <<= 1
    return cells


#: Size of the telemetry-overhead cell: large enough that a round does real
#: vectorized work, small enough to keep the best-of timing loops cheap.
TELEMETRY_N = 1 << 14


def measure_telemetry():
    """Overhead of the instrumented round loop with tracing enabled.

    push on a random 12-regular graph at ``n = 2^14``: the bare configuration
    (``REPRO_TRACE`` unset — spans are the shared no-op singleton) against the
    traced one (spans plus strided per-round samples land in a scratch JSONL
    directory).  The two legs are
    *interleaved* — ``2 * REPEATS`` bare/traced pairs — so ambient machine
    drift cannot masquerade as telemetry cost, and the gated statistic is
    the **median of the per-pair traced/bare ratios**: adjacent runs share
    whatever frequency/scheduler state the machine is in, so the pairwise
    ratio cancels drift that a best-of-each-leg comparison (also recorded,
    as ``trace_overhead_best``) leaves in.  The acceptance gate is <= 3%
    overhead with bit-identical broadcast times — telemetry observes, it
    never participates.
    """
    from repro.telemetry import TRACE_ENV_VAR

    graph = random_regular_graph(
        TELEMETRY_N, SCALE_DEGREE, np.random.default_rng(0), max_attempts=1
    )
    case = GraphCase(graph=graph, source=0, size_parameter=TELEMETRY_N)
    spec = ProtocolSpec("push")
    trials = _scale_trials(TELEMETRY_N)

    def run_once():
        start = time.perf_counter()
        trial_set = run_trial_set(
            spec,
            case,
            trials=trials,
            base_seed=BASE_SEED,
            experiment_id="bench-batch",
        )
        return time.perf_counter() - start, trial_set

    saved = os.environ.pop(TRACE_ENV_VAR, None)
    bare_times = []
    traced_times = []
    bare_trials = traced_trials = None
    try:
        run_once()  # warm-up, outside the timed comparison
        with tempfile.TemporaryDirectory() as tmp:
            # Alternate which leg runs first within each pair: the second
            # run of a pair tends to be slightly faster (caches, frequency
            # governor), and a fixed order would fold that bias into every
            # ratio.
            for pair in range(2 * REPEATS):
                legs = ["bare", "traced"] if pair % 2 == 0 else ["traced", "bare"]
                for leg in legs:
                    if leg == "bare":
                        os.environ.pop(TRACE_ENV_VAR, None)
                        elapsed, bare_trials = run_once()
                        bare_times.append(elapsed)
                    else:
                        os.environ[TRACE_ENV_VAR] = tmp
                        elapsed, traced_trials = run_once()
                        traced_times.append(elapsed)
    finally:
        if saved is not None:
            os.environ[TRACE_ENV_VAR] = saved
        else:
            os.environ.pop(TRACE_ENV_VAR, None)
    ratios = sorted(t / b for t, b in zip(traced_times, bare_times))
    mid = len(ratios) // 2
    median_ratio = (
        ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2.0
    )
    overhead = median_ratio - 1.0
    bare_seconds, traced_seconds = min(bare_times), min(traced_times)
    cell = {
        "protocol": "push",
        "graph": graph.name,
        "n": TELEMETRY_N,
        "trials": trials,
        "pairs": len(ratios),
        "bare_seconds": round(bare_seconds, 4),
        "traced_seconds": round(traced_seconds, 4),
        "trace_overhead": round(overhead, 4),
        "trace_overhead_best": round(traced_seconds / bare_seconds - 1.0, 4),
        "traced_results_identical": (
            bare_trials.broadcast_times() == traced_trials.broadcast_times()
        ),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    print(
        f"{'telemetry overhead':20s} {graph.name:28s} "
        f"bare {bare_seconds * 1000:7.1f} ms   traced {traced_seconds * 1000:7.1f} ms "
        f"(median pair {overhead * 100:+5.1f}%)"
    )
    return cell


#: Construction-time cells: the Figure-1 families at representative sizes.
#: Builders that return a (graph, layout) tuple are unwrapped.
CONSTRUCTION_CASES = (
    ("star", lambda: star((1 << 20) - 1)),
    ("double_star", lambda: double_star(1 << 20)),
    ("heavy_binary_tree", lambda: heavy_binary_tree(1 << 12)),
    ("cycle_of_stars_of_cliques", lambda: cycle_of_stars_of_cliques(64)),
    (
        "random_regular",
        lambda: random_regular_graph(
            1 << 20, SCALE_DEGREE, np.random.default_rng(0), max_attempts=1
        ),
    ),
    ("hypercube", lambda: hypercube(20)),
)


def measure_construction():
    """Wall-clock of the vectorized graph builders at scale-tier sizes."""
    cells = []
    for label, build in CONSTRUCTION_CASES:
        start = time.perf_counter()
        graph = build()
        elapsed = time.perf_counter() - start
        if isinstance(graph, tuple):
            graph = graph[0]
        cell = {
            "family": label,
            "graph": graph.name,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "seconds": round(elapsed, 4),
            "edges_per_second": round(graph.num_edges / elapsed, 1),
            "peak_rss_bytes": peak_rss_bytes(),
        }
        cells.append(cell)
        print(
            f"{label:26s} n={graph.num_vertices:>9d} m={graph.num_edges:>9d}   "
            f"{elapsed * 1000:9.1f} ms   {cell['edges_per_second'] / 1e6:6.2f} M edges/s"
        )
    return cells


ALL_SECTIONS = (
    "sweep",
    "dynamics",
    "workers",
    "store",
    "scale",
    "telemetry",
    "construction",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sections",
        nargs="+",
        choices=ALL_SECTIONS,
        default=None,
        help=(
            "run only these sections (default: all).  BENCH_batch.json is "
            "only rewritten when every section runs and every gate passes; "
            "partial runs gate their own sections and write nothing."
        ),
    )
    parser.add_argument(
        "--scale-max-n",
        type=int,
        default=SCALE_MAX_N,
        help="largest vertex count of the scale curve (default 2^20)",
    )
    args = parser.parse_args(argv)
    sections = tuple(args.sections) if args.sections else ALL_SECTIONS
    return run_sections(sections, scale_max_n=args.scale_max_n)


def run_sections(sections, *, scale_max_n: int = SCALE_MAX_N) -> int:
    """Measure ``sections`` and gate them; returns the process exit code.

    ``BENCH_batch.json`` is rewritten only by a full run in which every gate
    passed: a failing gate never lands in the committed baseline.
    """
    failed = []
    sweep_cells = extra_cells = dynamics_cells = None
    workers_cell = store_cell = telemetry_cell = None
    scale_cells = construction_cells = None
    overall = sweep_single = sweep_bat = None

    if "sweep" in sections:
        print(f"-- acceptance sweep: {TRIALS} trials, n={N}, all six protocol kernels --")
        cases = sweep_cases()
        sweep_cells = measure_cells(cases)
        print("-- supplementary cells (skewed-degree family) --")
        extra_cells = measure_cells(extra_cases())
        acceptance = [c for c in sweep_cells if c["protocol"] in ACCEPTANCE_PROTOCOLS]
        sweep_single = sum(c["one_seed_calls_seconds"] for c in acceptance)
        sweep_bat = sum(c["batched_seconds"] for c in acceptance)
        overall = round(sweep_single / sweep_bat, 2)
        print(f"{'acceptance pair overall':49s} 1-seed calls {sweep_single * 1000:8.1f} ms   "
              f"batch {sweep_bat * 1000:7.1f} ms   speedup {overall:5.2f}x")
        # The ratio measures the per-trial round-loop overhead that batching
        # removes: both sides run the same kernels on the same seeds.
        if overall < 4.0:
            print("FAIL: acceptance-pair batching speedup below 4x")
            failed.append("sweep: batching speedup >= 4x")

    if "dynamics" in sections:
        print("-- dynamic-topology masked-sampler overhead --")
        dynamics_cells = measure_dynamics(sweep_cases()[0])
        # The dynamic-topology layer must be near-free when nothing fails: a
        # static (all-active, fully materialized) schedule may cost < 15%
        # over the maskless path, and must not change a single result.
        overhead_ok = max(
            c["static_overhead"] for c in dynamics_cells
        ) < 0.15 and all(c["static_results_identical"] for c in dynamics_cells)
        if not overhead_ok:
            print("FAIL: static-schedule masking overhead exceeds 15% "
                  "or changed results")
            failed.append("dynamics: static-schedule overhead < 15%")

    if "workers" in sections:
        print(f"-- process-parallel cell scheduler (workers={WORKERS}) --")
        workers_cell = measure_workers()

    if "store" in sections:
        print("-- content-addressed result store (cold vs. warm sweep) --")
        store_cell = measure_store()
        # A warm store must skip every simulation cell AND every graph
        # construction (the manifest trust path), return the exact cold
        # results, and be at least an order of magnitude faster.
        store_ok = (
            store_cell["warm_speedup"] >= 10.0
            and store_cell["warm_cells_computed"] == 0
            and store_cell["warm_graph_constructions"] == 0
            and store_cell["warm_results_identical_to_cold"]
        )
        if not store_ok:
            print("FAIL: warm result-store sweep must be >= 10x faster than "
                  "cold with zero recomputed cells, zero graph constructions "
                  "and bit-identical results")
            failed.append("store: warm sweep >= 10x with zero recompute")

    if "scale" in sections:
        print(f"-- scale curve: n = 2^10 .. {scale_max_n} (d={SCALE_DEGREE} regular) --")
        scale_cells = measure_scale(scale_max_n)
        top_n = max(c["n"] for c in scale_cells)
        top_cells = [c for c in scale_cells if c["n"] == top_n]
        scale_ok = all(
            c["rounds_per_second"] >= SCALE_MIN_ROUNDS_PER_SECOND
            and c["completion_rate"] == 1.0
            for c in top_cells
        )
        if not scale_ok:
            print(f"FAIL: scale curve below {SCALE_MIN_ROUNDS_PER_SECOND} "
                  f"rounds/s (or incomplete trials) at n={top_n}")
            failed.append(f"scale: >= {SCALE_MIN_ROUNDS_PER_SECOND} rounds/s at n={top_n}")

    if "telemetry" in sections:
        print(f"-- telemetry overhead: traced vs. bare round loop (n={TELEMETRY_N}) --")
        telemetry_cell = measure_telemetry()
        # Tracing must be effectively free on the round loop: <= 3% overhead
        # against the better of two bare measurements, and the traced run
        # must not perturb a single broadcast time.
        telemetry_ok = (
            telemetry_cell["trace_overhead"] <= 0.03
            and telemetry_cell["traced_results_identical"]
        )
        if not telemetry_ok:
            print("FAIL: traced round loop exceeds 3% overhead or changed results")
            failed.append("telemetry: trace overhead <= 3%")

    if "construction" in sections:
        print("-- graph construction at scale-tier sizes --")
        construction_cells = measure_construction()

    if failed:
        print(f"gates failed: {'; '.join(failed)}")
    if set(sections) != set(ALL_SECTIONS):
        print(f"partial run ({', '.join(sections)}): {OUTPUT.name} not rewritten")
        return 1 if failed else 0
    if failed:
        print(f"{OUTPUT.name} not rewritten: a failing gate never becomes the baseline")
        return 1

    payload = {
        "benchmark": "bench-batch",
        "description": (
            f"{TRIALS}-trial sweeps at n={N} over all six protocol kernels on a "
            f"random 12-regular graph: {TRIALS} one-seed run_batch calls vs. one "
            f"{TRIALS}-seed call (best of {REPEATS} runs each); star-graph "
            "cells recorded as supplementary data; acceptance speedup pinned "
            "to the visit-exchange + push-pull pair for cross-PR comparability; "
            "workers cell records the process-parallel cell scheduler; "
            "dynamics cells record the dynamic-topology layer's overhead: the "
            "static all-active schedule (collapsed to the maskless fast path) "
            "must stay < 15% with bit-identical results, and a one-edge-down "
            "schedule records the true per-sample masking cost as "
            "informational masked_overhead; the store cell times a cold "
            "(computing + persisting) vs. warm (fully cached) sweep through "
            "the content-addressed result store, which must be >= 10x faster "
            "warm with zero recomputed cells, zero graph constructions (the "
            "journaled builder manifest resolves keys from trusted "
            "fingerprints) and bit-identical results, and records the "
            "warm-report (result_from_store) latency floor; the "
            "scale cells trace rounds/sec and peak RSS for push and "
            "visit-exchange on random 12-regular graphs from 2^10 up to the "
            "million-vertex tier (the batched sparse-frontier representation "
            "engages automatically above the sparse threshold), gated "
            "conservatively at >= 1 round/s at the top size; the telemetry "
            "cell gates the instrumented round loop (REPRO_TRACE spans plus "
            "strided per-round samples) at <= 3% overhead over the better of "
            "two bare measurements with bit-identical broadcast times; the "
            "construction cells time the vectorized graph builders at "
            "scale-tier sizes"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sweep_cells": sweep_cells,
        "extra_cells": extra_cells,
        "dynamics_cells": dynamics_cells,
        "workers_cell": workers_cell,
        "store_cell": store_cell,
        "telemetry_cell": telemetry_cell,
        "scale_cells": scale_cells,
        "construction_cells": construction_cells,
        "sweep_one_seed_calls_seconds": round(sweep_single, 4),
        "sweep_batched_seconds": round(sweep_bat, 4),
        "overall_speedup": overall,
        "max_static_dynamics_overhead": max(
            c["static_overhead"] for c in dynamics_cells
        ),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
