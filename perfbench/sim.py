"""Worker of the ``expander-2e16`` and ``powerlaw-2e16`` workloads.

    python3 perfbench/sim.py --workload expander-2e16 --seed 3 [--log2n 16] [--trials 8]

Set-up runs in this fresh interpreter: import ``repro`` and build the graph
from the seed.  The worker then prints one ``ready`` line and answers commands
on stdin, one JSON line each on stdout:

``pass``   run all six protocols with ``run_trial_set(..., store=False)``;
``trace``  the same with the layer tracer installed;
``quit``   exit.

A pass reports its CPU and wall time, per-cell latencies, vertex-rounds, peak RSS
(high-water mark reset before the pass) and each cell's broadcast-time digest
and completion, so the parent can check the outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import common
from tracer import PROTOCOLS, SpanTotals, Tracer, pass_layers

WORKLOADS = ("expander-2e16", "powerlaw-2e16")


#: Graph samples tried per seed before set-up gives up.  About 2% of seeds
#: draw a disconnected power-law graph; the protocols need a connected one.
GRAPH_ATTEMPTS = 8


def build_case(workload: str, seed: int, log2n: int):
    """The workload's graph case: the first connected graph sampled from the
    seed's stream of graph seeds; raises if there is none."""
    import numpy as np

    from repro.experiments.config import GraphCase
    from repro.graphs import random_regular_graph
    from repro.scenarios.generators import powerlaw_configuration

    if workload not in WORKLOADS:
        raise ValueError(f"unknown simulation workload {workload!r}")
    n = 1 << log2n
    for attempt in range(GRAPH_ATTEMPTS):
        rng = np.random.default_rng([seed, log2n] + ([attempt] if attempt else []))
        if workload == "expander-2e16":
            graph = random_regular_graph(n, 12, rng)
        else:
            graph = powerlaw_configuration(n, 2.5, rng, min_degree=2)
        if graph.is_connected():
            return GraphCase(graph=graph, source=0, size_parameter=n)
    raise RuntimeError(f"no connected {workload} graph for seed {seed}")


class SimPass:
    """One pass: every protocol once on the prepared case."""

    def __init__(self, workload: str, seed: int, case, trials: int) -> None:
        self.workload = workload
        self.seed = seed
        self.case = case
        self.trials = trials

    def run(self, tracer: Tracer = None) -> dict:
        from repro.experiments.config import ProtocolSpec
        from repro.experiments.runner import run_trial_set

        # Kernel objects hold their state in reference cycles; collect the
        # previous pass's so every pass starts from the same heap.
        gc.collect()
        common.reset_peak_rss()
        n = self.case.graph.num_vertices
        ops, digests, incomplete = [], {}, []
        vertex_rounds = 0
        cpu = time.process_time()
        start = time.monotonic()
        for protocol in PROTOCOLS:
            if tracer is not None:
                tracer.tag = protocol
            began = time.monotonic()
            trial_set = run_trial_set(
                ProtocolSpec(protocol),
                self.case,
                trials=self.trials,
                base_seed=self.seed,
                experiment_id=self.workload,
                store=False,
            )
            ops.append(time.monotonic() - began)
            digests[protocol] = common.trial_digest(trial_set)
            if trial_set.completion_rate < 1.0:
                incomplete.append(protocol)
            vertex_rounds += n * sum(r.rounds_executed for r in trial_set.results)
        end = time.monotonic()
        return {
            "start": start,
            "end": end,
            "wall": end - start,
            "cpu": time.process_time() - cpu,
            "ops": ops,
            "vertex_rounds": vertex_rounds,
            "peak_rss_mb": common.peak_rss_mb(),
            "digests": digests,
            "incomplete": incomplete,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--log2n", type=int, default=16)
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--trace-out", default=None, help="write traced spans here at exit")
    args = parser.parse_args(argv)

    common.use_checkout_src()
    case = build_case(args.workload, args.seed, args.log2n)
    work = SimPass(args.workload, args.seed, case, args.trials)
    # CPU seconds since this interpreter started: the set-up cost.
    print(json.dumps({"ready": True, "cpu": time.process_time()}), flush=True)

    tracer = Tracer()
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        if command == "pass":
            print(json.dumps(work.run()), flush=True)
        elif command == "trace":
            tracer.install()
            before = dict(tracer.counters)
            try:
                result = work.run(tracer)
            finally:
                tracer.uninstall()
            tracer.tag = ""
            counters = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
            totals = SpanTotals(tracer.spans, (result["start"], result["end"]))
            result["layers"] = pass_layers(totals, counters, wall=result["wall"])
            print(json.dumps(result), flush=True)
        else:
            print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
    if args.trace_out and tracer.spans:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
