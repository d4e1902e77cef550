"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``paper-cold``        ``repro report`` into an empty store, a fresh process per pass
``expander-2e16``     the six protocols on a random 12-regular graph, n = 2^16
``powerlaw-2e16``     the six protocols on a power-law graph, n = 2^16
``report-http-warm``  warm report reads over HTTP from two client threads

With ``--trace 0`` set-up runs several times and passes repeat until
``--seconds`` have passed; the end-to-end metrics are medians.  With
``--trace 1`` set-up runs once, untraced and traced passes alternate, and the
per-layer metrics are means over the traced passes.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import common
from tracer import LAYER_UNITS, PROTOCOLS

PYTHON = sys.executable
WORKLOADS = ("paper-cold", "expander-2e16", "powerlaw-2e16", "report-http-warm")
#: Set-up samples per untraced run (``setup_s`` is their median).
SETUP_SAMPLES = 3
#: Trials per protocol cell in a pass of the 2^16 workloads.
SIM_TRIALS = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "vertex_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SimWorkload:
    """Parent side of ``sim.py``: a fresh worker process per set-up."""

    def __init__(self, name: str, seed: int, workdir: Path, log2n: int = 16,
                 trials: int = SIM_TRIALS) -> None:
        common.require_checkout()
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.log2n = log2n
        self.trials = trials
        default = seed == common.DEFAULT_SEED and log2n == 16 and trials == SIM_TRIALS
        self.reference = common.load_reference(name) if default else None
        self.first_digests: Optional[Dict[str, str]] = None
        self.worker: Optional[subprocess.Popen] = None

    def setup(self, traced: bool = False) -> float:
        self.close()
        command = [
            PYTHON, str(common.BENCH / "sim.py"),
            "--workload", self.name, "--seed", str(self.seed),
            "--log2n", str(self.log2n), "--trials", str(self.trials),
        ]
        if traced:
            command += ["--trace-out", str(self.workdir / "trace.json")]
        self.worker = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=common.clean_env(),
        )
        line = self.worker.stdout.readline()
        if not line or not json.loads(line).get("ready"):
            raise RuntimeError(f"{self.name} set-up failed")
        return json.loads(line)["cpu"]

    def run_pass(self, traced: bool) -> dict:
        self.worker.stdin.write("trace\n" if traced else "pass\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} worker exited during a pass")
        result = json.loads(line)
        digests = result["digests"]
        if self.first_digests is None:
            self.first_digests = digests
        # Same seed, same cells: every pass must repeat the first exactly.
        bad = set(result["incomplete"])
        bad |= {p for p, value in digests.items() if self.first_digests.get(p) != value}
        if self.reference is not None:
            bad |= {p for p, value in digests.items() if self.reference.get(p) != value}
        result["attempted"] = len(PROTOCOLS)
        result["failed"] = len(bad) + len(PROTOCOLS) - len(digests)
        return result

    def finish(self, results: List[dict]) -> None:
        self.close()

    def close(self) -> None:
        if self.worker is None:
            return
        try:
            self.worker.stdin.write("quit\n")
            self.worker.stdin.close()
        except OSError:
            pass
        try:
            self.worker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait()
        self.worker.stdout.close()
        self.worker = None


def make_workload(name: str, seed: int, workdir: Path):
    if name in ("expander-2e16", "powerlaw-2e16"):
        return SimWorkload(name, seed, workdir)
    import paper

    if name == "paper-cold":
        return paper.PaperCold(seed, workdir)
    return paper.ReportHttpWarm(seed, workdir)


def measure(workload, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES):
    """Set up, then repeat passes until ``seconds`` have passed.

    Traced runs set up once (with the server traced, where there is one) and
    alternate untraced and traced passes, at least one of each.
    """
    setups = [workload.setup(traced=trace) for _ in range(1 if trace else setup_samples)]
    results: List[dict] = []
    began = time.monotonic()
    while True:
        results.append(workload.run_pass(traced=trace and len(results) % 2 == 1))
        if time.monotonic() - began >= seconds and (not trace or len(results) >= 2):
            break
    workload.finish(results)
    return setups, results


def summarize(setups: List[float], results: List[dict], trace: bool) -> dict:
    """The result line: end-to-end metrics (untraced) or per-layer ones."""
    plain = [r for r in results if "layers" not in r]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if trace:
        traced = [r for r in results if "layers" in r]
        values = {m: common.mean(r["layers"][m] for r in traced) for m in LAYER_UNITS}
        plain_wall = common.median([r["wall"] for r in plain])
        values["trace.overhead_s"] = common.median([r["wall"] for r in traced]) - plain_wall
        # What a user waits for, from the untraced passes of this run.
        ops = [seconds for r in plain for seconds in r["ops"]]
        values["wall.run_s"] = plain_wall
        values["wall.op_p50_ms"] = 1000 * common.percentile(ops, 50)
        values["wall.op_p95_ms"] = 1000 * common.percentile(ops, 95)
        values["op_error_rate"] = failed / attempted
        units = LAYER_UNITS
    else:
        values = {
            "setup_s": common.median(setups),
            "run_s": common.median([r["cpu"] for r in plain]),
            "vertex_rounds_per_s": common.median([r["vertex_rounds"] / r["cpu"] for r in plain]),
            "peak_rss_mb": common.median([r["peak_rss_mb"] for r in plain]),
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def write_reference(name: str, workdir: Path) -> None:
    """Pin the default seed's per-cell digests of ``name`` (one pass)."""
    workload = make_workload(name, common.DEFAULT_SEED, workdir)
    try:
        workload.setup()
        result = workload.run_pass(traced=False)
    finally:
        workload.close()
    common.write_reference("paper" if name == "paper-cold" else name, result["digests"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="pin this workload's default-seed cell digests in reference.json",
    )
    args = parser.parse_args(argv)
    try:
        common.require_checkout()
    except common.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.apply_clean_env()
    # Every process of the run shares one CPU (children inherit the mask):
    # on a two-vCPU virtual machine, a pass whose client and server ran on
    # both varied in CPU cost by up to 50% between runs, and by 7% on one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = common.run_dir(args.workload)
    if args.write_reference:
        write_reference(args.workload, workdir)
        return 0

    print(json.dumps({"environment": common.environment(args.seed), "workload": args.workload}))
    workload = make_workload(args.workload, args.seed, workdir)
    try:
        setups, results = measure(workload, args.seconds, bool(args.trace))
        line = summarize(setups, results, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        workload.close()
    passes = [
        {"cpu": r["cpu"], "wall": r["wall"], "failed": r["failed"],
         "peak_rss_mb": r["peak_rss_mb"], "traced": "layers" in r}
        for r in results
    ]
    print(json.dumps({"setups": setups, "passes": passes}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
