"""Gated performance harness for what ``perfbench/`` does not measure.

Five gates, one row each in :data:`GATES`:

* **sweep** — 50 one-seed ``run_batch`` calls against one 50-seed call, for
  the acceptance pair (visit-exchange + push-pull) on a random 12-regular
  graph at ``n = 1024``: batching must be >= 4x faster, with identical
  per-trial results;
* **dynamics** — the same runner cells with a static all-active topology
  schedule against none: < 15% overhead for each protocol, bit-identical
  results;
* **store** — a sweep into a fresh result store (cold) against one that is
  fully cached (warm): >= 10x faster warm, with zero recomputed cells, zero
  graph constructions and identical results;
* **scale** — rounds/sec and per-cell peak RSS for push, visit-exchange and
  the hybrid on random 12-regular graphs, ``n = 2^10 .. 2^20``: >= 1 round/s,
  with every trial complete, at the top size;
* **telemetry** — the round loop with ``REPRO_TRACE`` set against unset:
  <= 3% overhead, identical broadcast times.

The four ratio gates time their two legs with :func:`paired`: interleaved
pairs until they cover ``MIN_PAIRED_SECONDS`` (and number at least
``MIN_PAIRS``); the gated value is the median per-pair ratio, recorded with
its interquartile range.  Two sections are informational: ``workers`` (a
sweep serially and on the process-parallel cell scheduler; its speedup is
marked not applicable on fewer CPUs than workers) and ``construction``
(graph builders at scale-tier sizes, each with its own heap peak).  Every
timed leg runs without a result store, so ``REPRO_STORE`` cannot turn a
timing into a cache read::

    PYTHONPATH=src python benchmarks/run_bench.py

``BENCH_batch.json`` at the repository root is rewritten only when every
section ran and every gate passed; ``--sections`` runs and gates a subset
and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import resource
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.batch import run_batch, trial_seeds  # noqa: E402
from repro.experiments.config import (  # noqa: E402
    ExperimentConfig,
    GraphCase,
    ProtocolSpec,
)
from repro.experiments.figure1 import HEAVY_TREE_CASE, STAR_CASE  # noqa: E402
from repro.experiments.runner import run_experiment, run_trial_set  # noqa: E402
from repro.graphs import (  # noqa: E402
    cycle_of_stars_of_cliques,
    double_star,
    heavy_binary_tree,
    hypercube,
    random_regular_graph,
    star,
)
from repro.graphs.dynamic import StaticSchedule  # noqa: E402
from repro.graphs.graph import Graph  # noqa: E402
from repro.store import ResultStore  # noqa: E402
from repro.telemetry import TRACE_ENV_VAR  # noqa: E402

TRIALS = 50
N = 1024
DEGREE = 12
BASE_SEED = 0
WORKERS = 4
#: The paired sampler adds pairs until there are at least ``MIN_PAIRS`` and
#: both legs together have run for ``MIN_PAIRED_SECONDS``.
MIN_PAIRS = 10
MIN_PAIRED_SECONDS = 3.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch.json"
#: The protocols the sweep and dynamics gates are pinned to, so the numbers
#: stay comparable across baseline refreshes.
ACCEPTANCE_PROTOCOLS = ("visit-exchange", "push-pull")


def rss_multiplier(platform_name: str = sys.platform) -> int:
    """``ru_maxrss``-to-bytes factor: the unit is platform-dependent.

    POSIX leaves the unit unspecified; Linux (and the BSDs) report kilobytes
    while macOS reports bytes, so a blanket ``* 1024`` inflates macOS
    readings 1024-fold.
    """
    return 1 if platform_name == "darwin" else 1024


def _vm_hwm_bytes():
    """This process' ``VmHWM`` in bytes, or None where /proc has none."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


#: Where per-cell peak RSS comes from: ``"VmHWM"`` (Linux; the high-water
#: mark is reset before every cell) or ``"ru_maxrss"`` (elsewhere; the
#: monotone lifetime peak, so a cell reads the largest peak so far).
PEAK_RSS_SOURCE = (
    "VmHWM"
    if os.access("/proc/self/clear_refs", os.W_OK) and _vm_hwm_bytes() is not None
    else "ru_maxrss"
)


def reset_peak_rss() -> None:
    """Start a cell's peak-RSS window (``VmHWM`` reset through
    ``/proc/self/clear_refs``); a no-op under ``ru_maxrss``."""
    if PEAK_RSS_SOURCE == "VmHWM":
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")


def peak_rss_bytes() -> int:
    """Peak resident set size in bytes since the last :func:`reset_peak_rss`
    (the lifetime peak under ``ru_maxrss``)."""
    if PEAK_RSS_SOURCE == "VmHWM":
        return _vm_hwm_bytes()
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * rss_multiplier()


def heap_peak_bytes(build) -> int:
    """The tracemalloc peak of one ``build()`` above the heap it started on.

    It needs no ``/proc`` and no reset, so it measures the one build on any
    platform; tracing slows allocation, so callers time a separate build.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def paired(label_a, leg_a, label_b, leg_b):
    """Time two no-argument legs in interleaved pairs: the ``a / b`` ratio.

    Both legs run once untimed (warm-up), then in pairs whose order
    alternates: the second run of a pair tends to be slightly faster
    (caches, frequency governor), and a fixed order would fold that bias
    into every ratio.  The two runs of a pair share the machine's state, so
    their ratio cancels the drift that comparing separate best-of timings
    leaves in.

    Returns the statistic — the median per-pair ratio as ``value``, its
    interquartile range, the pair count and each leg's median seconds — and
    each leg's last return value.
    """
    legs = {label_a: leg_a, label_b: leg_b}
    outputs = {label: leg() for label, leg in legs.items()}
    seconds = {label_a: [], label_b: []}
    total = 0.0
    while len(seconds[label_a]) < MIN_PAIRS or total < MIN_PAIRED_SECONDS:
        order = legs if len(seconds[label_a]) % 2 == 0 else reversed(legs)
        for label in order:
            start = time.perf_counter()
            outputs[label] = legs[label]()
            elapsed = time.perf_counter() - start
            seconds[label].append(elapsed)
            total += elapsed
    ratios = np.array(seconds[label_a]) / np.array(seconds[label_b])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    stat = {
        "value": round(float(median), 4),
        "iqr": [round(float(q1), 4), round(float(q3), 4)],
        "pairs": len(ratios),
    }
    for label, times in seconds.items():
        stat[f"{label}_seconds"] = round(float(np.median(times)), 4)
    return stat, outputs[label_a], outputs[label_b]


def as_overhead(stat):
    """A ratio statistic of :func:`paired` restated as overhead, ratio - 1."""
    return {
        **stat,
        "value": round(stat["value"] - 1.0, 4),
        "iqr": [round(q - 1.0, 4) for q in stat["iqr"]],
    }


def run_cell(spec, case, *, trials=TRIALS, dynamics=None):
    """One runner cell, never through a result store."""
    return run_trial_set(
        spec,
        case,
        trials=trials,
        base_seed=BASE_SEED,
        experiment_id="bench-batch",
        dynamics=dynamics,
        store=False,
    )


def regular_case(n: int) -> GraphCase:
    """A random ``DEGREE``-regular graph on ``n`` vertices, source 0.

    ``max_attempts=1``: a 12-regular pairing is essentially never simple, so
    the build goes straight to the vectorized repair path instead of burning
    200 doomed shuffles.
    """
    graph = random_regular_graph(n, DEGREE, np.random.default_rng(0), max_attempts=1)
    return GraphCase(graph=graph, source=0, size_parameter=n)


def measure_sweep():
    """Batching: both acceptance protocols as one-seed calls against one batch
    each, with the same per-trial seeds."""
    case = regular_case(N)
    seeds = {
        protocol: trial_seeds(BASE_SEED, "bench-batch", protocol, trials=TRIALS)
        for protocol in ACCEPTANCE_PROTOCOLS
    }

    def times(protocol, seed_groups):
        batches = [run_batch(protocol, case.graph, case.source, seeds=g) for g in seed_groups]
        return np.concatenate([batch.broadcast_times for batch in batches]).tolist()

    def one_seed_calls():
        return {p: times(p, [[seed] for seed in group]) for p, group in seeds.items()}

    def batched():
        return {p: times(p, [group]) for p, group in seeds.items()}

    speedup, single, batch = paired("one_seed_calls", one_seed_calls, "batched", batched)
    return {
        "protocols": list(ACCEPTANCE_PROTOCOLS),
        "graph": case.graph.name,
        "trials": TRIALS,
        "speedup": speedup,
        "checks": {"results_identical": single == batch},
    }


def measure_dynamics():
    """Overhead of a static all-active schedule on the acceptance pair.

    ``DynamicsRuntime`` detects the all-active round and hands the kernels
    the maskless fast path, so this is the whole static-schedule overhead as
    a user sees it (one mask expansion and one ``all()`` check per run).
    The gated value is the worse protocol's.
    """
    case = regular_case(N)
    all_active = StaticSchedule(
        edge_state=np.ones(case.graph.num_edges, dtype=bool),
        vertex_state=np.ones(case.graph.num_vertices, dtype=bool),
    )
    cells = []
    for protocol in ACCEPTANCE_PROTOCOLS:
        spec = ProtocolSpec(protocol)
        ratio, static, plain = paired(
            "static",
            partial(run_cell, spec, case, dynamics=all_active),
            "plain",
            partial(run_cell, spec, case),
        )
        cells.append(
            {
                "protocol": protocol,
                "static_overhead": as_overhead(ratio),
                "static_results_identical": plain.broadcast_times() == static.broadcast_times(),
            }
        )
    worst = max(cells, key=lambda cell: cell["static_overhead"]["value"])
    return {
        "graph": case.graph.name,
        "trials": TRIALS,
        "cells": cells,
        "static_overhead": {"protocol": worst["protocol"], **worst["static_overhead"]},
        "checks": {
            "static_results_identical": all(c["static_results_identical"] for c in cells)
        },
    }


STORE_CONFIG = ExperimentConfig(
    experiment_id="bench-store",
    title="Result-store cold/warm benchmark",
    paper_reference="Figure 1(a)-style sweep",
    description=(
        "push on star graphs from a leaf source (Theta(n log n) broadcast "
        "time, so the cells are simulation-dominated), run cold (empty "
        "store) and warm (fully cached)"
    ),
    graph_builder=STAR_CASE,
    sizes=(511, 1023),
    protocols=(ProtocolSpec("push"),),
    trials=30,
)


def measure_store():
    """Cold vs. warm sweep through the content-addressed result store.

    Every cold leg computes and persists the sweep into a fresh store; every
    warm leg reruns it against the last filled store and must execute zero
    cells and, through the journaled builder manifest, build zero graphs.
    """
    warm_work = []  # (cells computed, graphs built) per warm leg
    with tempfile.TemporaryDirectory() as tmp:
        stores = []

        def cold():
            stores.append(ResultStore(Path(tmp) / f"store-{len(stores)}"))
            return run_experiment(STORE_CONFIG, base_seed=BASE_SEED, store=stores[-1])

        def warm():
            built = Graph.construction_count
            result = run_experiment(STORE_CONFIG, base_seed=BASE_SEED, store=stores[-1])
            computed = [c.trials.store_status[0] for c in result.cells].count("computed")
            warm_work.append((computed, Graph.construction_count - built))
            return result

        speedup, cold_result, warm_result = paired("cold", cold, "warm", warm)
    return {
        "experiment": STORE_CONFIG.experiment_id,
        "sizes": list(STORE_CONFIG.sizes),
        "trials": STORE_CONFIG.trials,
        "protocols": [s.name for s in STORE_CONFIG.protocols],
        "warm_speedup": speedup,
        "checks": {
            "warm_results_identical_to_cold": (
                [c.trials for c in warm_result.cells] == [c.trials for c in cold_result.cells]
            ),
            "zero_warm_cells_computed": all(computed == 0 for computed, _ in warm_work),
            "zero_warm_graph_constructions": all(built == 0 for _, built in warm_work),
        },
    }


WORKERS_CONFIG = ExperimentConfig(
    experiment_id="bench-workers",
    title="Process-parallel cell scheduler benchmark",
    paper_reference="Figure 1(c)-style sweep",
    description=(
        "visit-exchange on heavy binary trees from a leaf source: the most "
        "expensive Figure-1 cells (broadcast time is Omega(n))"
    ),
    graph_builder=HEAVY_TREE_CASE,
    sizes=(511, 767, 1023, 1279),
    protocols=(ProtocolSpec("visit-exchange"),),
    trials=30,
)


def measure_workers():
    """The same multi-cell sweep serially and on ``WORKERS`` processes.

    Informational: the speedup only means something with at least
    ``WORKERS`` CPUs, so the cell says whether it is ``applicable``.
    """
    cpus = os.cpu_count() or 1
    start = time.perf_counter()
    serial = run_experiment(WORKERS_CONFIG, base_seed=BASE_SEED, store=False)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_experiment(WORKERS_CONFIG, base_seed=BASE_SEED, workers=WORKERS, store=False)
    parallel_seconds = time.perf_counter() - start
    cell = {
        "experiment": WORKERS_CONFIG.experiment_id,
        "sizes": list(WORKERS_CONFIG.sizes),
        "trials": WORKERS_CONFIG.trials,
        "workers": WORKERS,
        "cpu_count": cpus,
        "applicable": cpus >= WORKERS,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "results_identical_to_serial": (
            [c.trials for c in serial.cells] == [c.trials for c in parallel.cells]
        ),
    }
    print(
        f"workers={WORKERS} speedup {cell['speedup']:.2f}x on {cpus} CPUs "
        f"({'applicable' if cell['applicable'] else 'not applicable'})"
    )
    return cell


#: Protocols of the scale curve: one vertex protocol (push, sparse-frontier
#: tier), one agent protocol (visit-exchange, agent-proportional already) and
#: the hybrid of the two, the largest working set per cell.
SCALE_PROTOCOLS = ("push", "visit-exchange", "hybrid-ppull-visitx")
SCALE_MIN_N = 1 << 10
SCALE_MAX_N = 1 << 20


def _scale_trials(n: int) -> int:
    """Trial count per scale cell, shrinking with n to bound memory and time."""
    return max(4, min(32, (1 << 22) // n))


def measure_scale(max_n: int = SCALE_MAX_N):
    """Rounds/sec and per-cell peak RSS across n = 2^10 .. ``max_n``, one
    timed run per cell.

    Push picks its tier before every round (sparse frontiers in the thin
    phases, dense rows in the hot phase); a cell's recorded frontier is
    ``"sparse"`` once any round ran sparse.  The gated value is the slowest protocol at the top size.
    """
    cells = []
    n = SCALE_MIN_N
    while n <= max_n:
        case = regular_case(n)
        trials = _scale_trials(n)
        for protocol in SCALE_PROTOCOLS:
            reset_peak_rss()
            start = time.perf_counter()
            trial_set = run_cell(ProtocolSpec(protocol), case, trials=trials)
            elapsed = time.perf_counter() - start
            rounds = sum(int(r.rounds_executed) for r in trial_set.results)
            cell = {
                "protocol": protocol,
                "n": n,
                "trials": trials,
                "seconds": round(elapsed, 4),
                "rounds_per_second": round(rounds / elapsed, 1),
                "mean_time": trial_set.mean_broadcast_time(),
                "completion_rate": trial_set.completion_rate,
                "frontier": trial_set.results[0].metadata.get("frontier"),
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
    top = [c for c in cells if c["n"] == cells[-1]["n"]]
    return {
        "degree": DEGREE,
        "cells": cells,
        "top_rounds_per_second": {
            "n": top[0]["n"],
            "value": min(c["rounds_per_second"] for c in top),
        },
        "checks": {"top_size_complete": all(c["completion_rate"] == 1.0 for c in top)},
    }


#: Size of the telemetry cell: large enough that a round does real vectorized
#: work, small enough to keep the paired runs cheap.
TELEMETRY_N = 1 << 14


def measure_telemetry():
    """Overhead of the instrumented round loop: push with ``REPRO_TRACE``
    set (spans plus strided per-round samples land in a scratch JSONL
    directory) against unset (spans are the shared no-op singleton)."""
    case = regular_case(TELEMETRY_N)
    bare = partial(run_cell, ProtocolSpec("push"), case, trials=_scale_trials(TELEMETRY_N))
    saved = os.environ.pop(TRACE_ENV_VAR, None)
    try:
        with tempfile.TemporaryDirectory() as tmp:

            def traced():
                os.environ[TRACE_ENV_VAR] = tmp
                try:
                    return bare()
                finally:
                    os.environ.pop(TRACE_ENV_VAR)

            ratio, traced_set, bare_set = paired("traced", traced, "bare", bare)
    finally:
        if saved is not None:
            os.environ[TRACE_ENV_VAR] = saved
    return {
        "protocol": "push",
        "graph": case.graph.name,
        "trials": _scale_trials(TELEMETRY_N),
        "trace_overhead": as_overhead(ratio),
        "checks": {
            "traced_results_identical": bare_set.broadcast_times() == traced_set.broadcast_times()
        },
    }


#: Construction-time cells: the Figure-1 families at representative sizes.
#: Builders that return a (graph, layout) tuple are unwrapped.
CONSTRUCTION_CASES = (
    ("star", lambda: star((1 << 20) - 1)),
    ("double_star", lambda: double_star(1 << 20)),
    ("heavy_binary_tree", lambda: heavy_binary_tree(1 << 12)),
    ("cycle_of_stars_of_cliques", lambda: cycle_of_stars_of_cliques(64)),
    ("random_regular", lambda: regular_case(1 << 20).graph),
    ("hypercube", lambda: hypercube(20)),
)


def measure_construction():
    """Wall-clock of the vectorized graph builders at scale-tier sizes, and
    the heap peak of a second, untimed build."""
    cells = []
    for label, build in CONSTRUCTION_CASES:
        reset_peak_rss()
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
        del graph
        cell["heap_peak_bytes"] = heap_peak_bytes(build)
        cells.append(cell)
        print(
            f"{label:26s} n={cell['n']:>9d} m={cell['m']:>9d}   "
            f"{elapsed * 1000:9.1f} ms   {cell['edges_per_second'] / 1e6:6.2f} M edges/s"
        )
    return cells


_COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class Gate:
    """A gate: ``record[statistic]["value"] <op> threshold`` on its section's
    record, with every entry of the record's ``checks`` true."""

    section: str
    statistic: str
    op: str
    threshold: float

    @property
    def name(self) -> str:
        return f"{self.section}: {self.statistic} {self.op} {self.threshold:g}"

    def evaluate(self, record) -> dict:
        stat = record[self.statistic]
        value = stat["value"]
        return {
            "name": self.name,
            "threshold": self.threshold,
            "value": value,
            "iqr": stat.get("iqr"),
            "pairs": stat.get("pairs"),
            "checks": record["checks"],
            "pass": bool(
                _COMPARE[self.op](value, self.threshold) and all(record["checks"].values())
            ),
        }


GATES = (
    Gate("sweep", "speedup", ">=", 4.0),
    Gate("dynamics", "static_overhead", "<", 0.15),
    Gate("store", "warm_speedup", ">=", 10.0),
    # Deliberately conservative (a 2^20-vertex push round is ~1M draws): it
    # catches order-of-magnitude regressions, not drift.
    Gate("scale", "top_rounds_per_second", ">=", 1.0),
    Gate("telemetry", "trace_overhead", "<=", 0.03),
)

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
    measures = {
        "sweep": measure_sweep,
        "dynamics": measure_dynamics,
        "workers": measure_workers,
        "store": measure_store,
        "scale": partial(measure_scale, scale_max_n),
        "telemetry": measure_telemetry,
        "construction": measure_construction,
    }
    records, gates = {}, []
    for section in ALL_SECTIONS:
        if section not in sections:
            continue
        print(f"-- {section} --")
        records[section] = measures[section]()
        for gate in GATES:
            if gate.section == section:
                row = gate.evaluate(records[section])
                gates.append(row)
                spread = f"   IQR {row['iqr']}, {row['pairs']} pairs" if row["iqr"] else ""
                print(f"{'PASS' if row['pass'] else 'FAIL'} {row['name']}: {row['value']}{spread}")
                if not all(row["checks"].values()):
                    print(f"     checks: {row['checks']}")

    failed = [row["name"] for row in gates if not row["pass"]]
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
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "peak_rss_source": PEAK_RSS_SOURCE,
        "min_pairs": MIN_PAIRS,
        "min_paired_seconds": MIN_PAIRED_SECONDS,
        "gates": gates,
        **records,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
