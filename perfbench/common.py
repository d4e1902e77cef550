"""Shared helpers of the benchmark: checkout layout, environment, statistics,
process memory and result digests."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

#: The checkout the benchmark measures: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
#: Scratch space of a run (stores, reports, traces); ignored by git.
RUN_ROOT = ROOT / ".perfbench_run"
REFERENCE = BENCH / "reference.json"

#: The seed whose per-cell results are pinned in ``reference.json``.
DEFAULT_SEED = 0


class CheckoutError(RuntimeError):
    """The benchmark was started outside a checkout holding the program."""


def require_checkout() -> None:
    """Fail unless ``src/repro`` of this checkout is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no program to measure: {SRC / 'repro'} is missing")


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's sources, never an installed copy."""
    require_checkout()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise CheckoutError(f"imported repro from {repro.__file__}, not from {SRC}")


def clean_env() -> Dict[str, str]:
    """The environment for every process of a run: no ``REPRO_*`` knobs, and
    this checkout's sources first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def apply_clean_env() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(clean_env())


def run_dir(workload: str) -> Path:
    """A fresh scratch directory for one run of ``workload``."""
    path = RUN_ROOT / workload
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def environment(seed: int) -> Dict[str, object]:
    """What a result was measured on."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- memory -------------------------------------------------------------------

def reset_peak_rss(pid: Optional[int] = None) -> None:
    """Reset the RSS high-water mark of a process (Linux ``clear_refs``)."""
    with open(f"/proc/{pid or 'self'}/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process in MiB: its peak RSS since the last reset."""
    with open(f"/proc/{pid or 'self'}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# -- CPU time -----------------------------------------------------------------
#
# Time metrics count CPU seconds, not wall seconds: on a virtual machine whose
# host takes CPU away (steal time), wall time of the same work varies several
# times more between runs than its CPU time does.

def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process, exited threads included."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of the stat line; the split starts at field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def children_cpu_seconds() -> float:
    """User plus system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# -- statistics ---------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


# -- result digests -----------------------------------------------------------

def digest(value: object) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def trial_digest(trial_set) -> str:
    """Digest of a cell's per-trial broadcast times (``None``: incomplete)."""
    return digest([result.broadcast_time for result in trial_set.results])


def load_reference(workload: str) -> Dict[str, str]:
    """Pinned default-seed digests of ``workload`` (empty when none are)."""
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def write_reference(workload: str, digests: Dict[str, str]) -> None:
    document = {}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as handle:
            document = json.load(handle)
    document[workload] = dict(sorted(digests.items()))
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")

