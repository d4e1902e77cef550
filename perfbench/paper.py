"""The ``paper-cold`` and ``report-http-warm`` workloads.

Both read or write the cells of the full paper report (all registered
experiments plus the coupling and fairness documents).  ``paper-cold`` runs
``repro report`` into an empty store as a fresh process per pass.
``report-http-warm`` fills a store once the same way, serves it with
``repro report --serve`` and reads it back over HTTP from two client threads.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
from tracer import Patches, SpanTotals, Tracer, load_spans, pass_layers

PYTHON = sys.executable
LAUNCH = str(common.BENCH / "launch.py")
#: Cell id of the two document cells of the report.
DOCUMENTS = ("coupling", "fairness")


class ReportSize:
    """Which report: ``scale``/``trials`` as ``repro report`` takes them."""

    def __init__(self, scale: float = 1.0, trials: Optional[int] = None) -> None:
        self.scale = scale
        self.trials = trials

    def cli_args(self) -> List[str]:
        args = ["--scale", repr(self.scale)]
        if self.trials is not None:
            args += ["--trials", str(self.trials)]
        return args

    def sweep_kwargs(self, config) -> Dict[str, object]:
        from repro.experiments.config import scaled_sizes

        sizes = scaled_sizes(config.sizes, self.scale) if self.scale != 1.0 else None
        return {"sizes": sizes, "trials": self.trials}

    @property
    def default(self) -> bool:
        return self.scale == 1.0 and self.trials is None


def configs():
    from repro.experiments.registry import all_experiments

    return all_experiments()


def expected_cells(size: ReportSize) -> int:
    total = len(DOCUMENTS)
    for config in configs():
        sizes = size.sweep_kwargs(config)["sizes"] or config.sizes
        total += len(sizes) * len(config.protocols)
    return total


def result_cells(result) -> Dict[str, object]:
    """``{cell id: trial set}`` of an experiment result."""
    return {
        f"{cell.experiment_id}|{cell.size_parameter}|{cell.protocol_label}": cell.trials
        for cell in result.cells
    }


class CellCheck:
    """Checks the report's cells: every trial completed (every registered
    experiment expects completion within its budget), and at the default seed
    each cell's broadcast-time digest equals the committed reference."""

    def __init__(self, seed: int, size: ReportSize) -> None:
        self.reference = (
            common.load_reference("paper")
            if seed == common.DEFAULT_SEED and size.default
            else None
        )
        self.expected = expected_cells(size)

    def failures(self, digests: Dict[str, str], incomplete: List[str]) -> int:
        """Failed cells of one pass: cells not delivered, cells with
        incomplete trials, and cells whose digest differs from the reference."""
        bad = set(incomplete)
        if self.reference is not None:
            bad |= {cell for cell, value in digests.items() if self.reference.get(cell) != value}
        return len(bad) + max(self.expected - len(digests), 0)


def read_report_cells(store, seed: int, size: ReportSize):
    """Digests, incomplete cells and vertex-rounds of every report cell in
    ``store``.  Raises if a cell cannot be read."""
    from repro.experiments import reporting

    digests, incomplete, vertex_rounds = {}, [], 0
    for config in configs():
        result = reporting.result_from_store(
            config, store, base_seed=seed, **size.sweep_kwargs(config)
        )
        for cell, trials in result_cells(result).items():
            digests[cell] = common.trial_digest(trials)
            if trials.completion_rate < 1.0:
                incomplete.append(cell)
            vertex_rounds += trials.num_vertices * sum(r.rounds_executed for r in trials.results)
    digests["coupling"] = common.digest(
        reporting.coupling_result_from_store(store, base_seed=seed).to_dict()
    )
    digests["fairness"] = common.digest(
        reporting.fairness_result_from_store(store, base_seed=seed).to_dict()
    )
    return digests, incomplete, vertex_rounds


def launch(args: List[str], stats: Path, trace: Optional[Path] = None, **popen) -> subprocess.Popen:
    command = [PYTHON, LAUNCH, "--stats", str(stats)]
    if trace is not None:
        command += ["--trace", str(trace)]
    return subprocess.Popen(command + ["--"] + args, env=common.clean_env(), **popen)


def stop(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """Stop a child and wait for it: SIGTERM, then SIGKILL."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def run_report(
    store: Path, output: Path, seed: int, size: ReportSize, stats: Path, trace: Optional[Path] = None
) -> Tuple[int, float, dict]:
    """One ``repro report`` into ``store``: exit code, wall seconds, and the
    launcher's stats plus ``cpu`` (the process's CPU seconds) and ``spawned``."""
    shutil.rmtree(store, ignore_errors=True)
    output.unlink(missing_ok=True)
    stats.unlink(missing_ok=True)
    cpu = common.children_cpu_seconds()
    began = time.monotonic()
    process = launch(
        ["report", "--store", str(store), "--output", str(output), "--seed", str(seed)]
        + size.cli_args(),
        stats,
        trace,
        stdout=subprocess.DEVNULL,
    )
    try:
        code = process.wait(timeout=170)
    finally:
        stop(process)
    wall = time.monotonic() - began
    info = json.loads(stats.read_text()) if stats.exists() else {}
    info["spawned"] = began
    info["cpu"] = common.children_cpu_seconds() - cpu
    return code, wall, info


class PaperCold:
    """``repro report --store <empty dir>`` as a subprocess, per pass."""

    def __init__(self, seed: int, workdir: Path, size: ReportSize = None) -> None:
        common.use_checkout_src()
        self.seed = seed
        self.workdir = workdir
        self.size = size or ReportSize()
        self.check = CellCheck(seed, self.size)
        self.store = workdir / "store"
        self.output = workdir / "report.md"
        self.passes = 0

    def setup(self, traced: bool = False) -> float:
        """Set-up of a cold report is a fresh interpreter importing the CLI."""
        cpu = common.children_cpu_seconds()
        subprocess.run(
            [PYTHON, "-c", "import repro.cli.main"], env=common.clean_env(), check=True
        )
        return common.children_cpu_seconds() - cpu

    def run_pass(self, traced: bool) -> dict:
        self.passes += 1
        stats = self.workdir / "launch-stats.json"
        trace = self.workdir / f"trace-{self.passes}.json" if traced else None
        code, wall, info = run_report(self.store, self.output, self.seed, self.size, stats, trace)
        result = {"wall": wall, "cpu": info["cpu"], "ops": [], "vertex_rounds": 0}
        result["peak_rss_mb"] = 0.0
        result["attempted"] = self.check.expected
        if code != 0 or not self.output.exists() or not info.get("ops"):
            result["failed"] = self.check.expected
            return result
        done = [info["imported"]] + info["ops"]
        result["ops"] = [b - a for a, b in zip(done, done[1:])]
        result["peak_rss_mb"] = info["peak_rss_mb"]
        from repro.store import ResultStore

        try:
            digests, incomplete, result["vertex_rounds"] = read_report_cells(
                ResultStore(self.store), self.seed, self.size
            )
            result["failed"] = self.check.failures(digests, incomplete)
            result["digests"] = digests
        except (KeyError, OSError, ValueError, RuntimeError):
            result["failed"] = self.check.expected
        if traced:
            spans, document = load_spans(str(trace))
            wall = info["done"] - info["spawned"]
            result["layers"] = pass_layers(
                SpanTotals(spans),
                document["counters"],
                wall=wall,
                import_s=info["imported"] - info["start"],
            )
            result["wall"] = wall
        return result

    def finish(self, results: List[dict]) -> None:
        pass

    def close(self) -> None:
        pass


class ReportHttpWarm:
    """Warm report reads over HTTP from two closed-loop client threads.

    The served store always holds the default seed's report, so every run
    reads the same cells and checks them against the pinned reference; the
    run's seed orders the experiments and sections and splits them between
    the clients.
    """

    threads = 2

    def __init__(self, seed: int, workdir: Path, size: ReportSize = None) -> None:
        common.use_checkout_src()
        from repro.experiments import reporting

        self.seed = common.DEFAULT_SEED
        self.workdir = workdir
        self.size = size or ReportSize()
        self.check = CellCheck(self.seed, self.size)
        self.store_root = workdir / "store"
        order = random.Random(seed)
        self.configs = order.sample(configs(), len(configs()))
        self.documents = order.sample(DOCUMENTS, len(DOCUMENTS))
        sections = reporting.report_section_ids()
        self.sections = order.sample(sections, len(sections))
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.fill_s: Optional[float] = None
        self.tracer = Tracer()
        self.passes = 0
        self._request_times: List[float] = []
        self._install_request_clock()

    # -- set-up ------------------------------------------------------------
    def fill(self) -> float:
        """CPU seconds of filling the store with the paper report's cells."""
        code, _, info = run_report(
            self.store_root,
            self.workdir / "fill.md",
            self.seed,
            self.size,
            self.workdir / "fill-stats.json",
        )
        if code != 0:
            raise RuntimeError(f"filling the store failed with exit code {code}")
        return info["cpu"]

    def setup(self, traced: bool = False) -> float:
        """Fill the store (once per run), then start and warm the server;
        returns the CPU seconds of the fill plus the server's until warm."""
        if self.fill_s is None:
            self.fill_s = self.fill()
        self._stop_server()
        self.server = launch(
            ["report", "--serve", "--port", "0", "--store", str(self.store_root)],
            self.workdir / "server-stats.json",
            self.workdir / "server-trace.json" if traced else None,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.server.stdout.readline()
        if " at http://" not in line:
            raise RuntimeError(f"report server did not start: {line!r}")
        self.url = line.split(" at ", 1)[1].split()[0]
        threading.Thread(target=self.server.stdout.read, daemon=True).start()
        conn = self._connection()
        try:
            for section in self.sections:
                status, body, _ = self._get(conn, f"/report/{section}.json{self._query()}")
                if status != 200 or not _complete_report(body):
                    raise RuntimeError(f"warming /report/{section} answered {status}")
        finally:
            conn.close()
        return self.fill_s + common.cpu_seconds(self.server.pid)

    # -- HTTP ----------------------------------------------------------------
    def _install_request_clock(self) -> None:
        """Time every request the store client makes (the ``ops`` latency)."""
        times = self._request_times

        def make(original):
            def timed(backend, *args, **kwargs):
                began = time.monotonic()
                try:
                    return original(backend, *args, **kwargs)
                finally:
                    times.append(time.monotonic() - began)

            return timed

        self._clock = Patches()
        self._clock.replace("repro.store.backends.remote", "RemoteBackend._request", make)

    def _connection(self) -> http.client.HTTPConnection:
        host, port = self.url[len("http://"):].split(":")
        return http.client.HTTPConnection(host, int(port), timeout=60)

    def _query(self) -> str:
        query = f"?seed={self.seed}&scale={self.size.scale!r}"
        if self.size.trials is not None:
            query += f"&trials={self.size.trials}"
        return query

    @staticmethod
    def _get(conn, path: str, headers: Optional[dict] = None):
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        return response.status, body, response.getheader("ETag")

    def _service_seconds(self) -> Tuple[float, int]:
        """Server handling seconds and requests so far, from its /metrics
        (the /metrics route itself excluded)."""
        conn = self._connection()
        try:
            _, body, _ = self._get(conn, "/metrics")
        finally:
            conn.close()
        seconds, count = 0.0, 0
        for line in body.decode("utf-8").splitlines():
            if line.startswith("repro_service_request_seconds_") and 'route="/metrics"' not in line:
                name, value = line.rsplit(" ", 1)
                if name.startswith("repro_service_request_seconds_sum"):
                    seconds += float(value)
                elif name.startswith("repro_service_request_seconds_count"):
                    count += int(float(value))
        return seconds, count

    # -- a pass ----------------------------------------------------------------
    def _client(self, index: int, cache: Path, out: dict) -> None:
        """One closed-loop client: (a) every cell of its share of the
        experiments through a remote ResultStore, (b) its share of the report
        sections, (c) their revalidation."""
        from repro.experiments import reporting
        from repro.store import ResultStore

        tracer = self.tracer
        store = ResultStore(self.url, cache=cache)
        results = []
        share = self.configs[index::2]
        for config in share:
            tracer.tag = config.experiment_id
            try:
                results.append(
                    reporting.result_from_store(
                        config, store, base_seed=self.seed, **self.size.sweep_kwargs(config)
                    )
                )
            except Exception:  # undelivered cells count as failed ops
                pass
        documents = {}
        loaders = {
            "coupling": reporting.coupling_result_from_store,
            "fairness": reporting.fairness_result_from_store,
        }
        for name in self.documents[index::2]:
            tracer.tag = name
            try:
                documents[name] = loaders[name](store, base_seed=self.seed).to_dict()
            except Exception:
                pass
        conn = self._connection()
        latencies, request_failures, etags = [], 0, {}
        sections = self.sections[index::2]
        try:
            for revalidate in (False, True):
                for section in sections:
                    tracer.tag = section
                    path = f"/report/{section}.json{self._query()}"
                    headers = {"If-None-Match": etags.get(section, "")} if revalidate else None
                    began = time.monotonic()
                    try:
                        status, body, etag = self._get(conn, path, headers)
                    except (OSError, http.client.HTTPException):
                        status, body, etag = 0, b"", None
                        conn.close()
                        conn = self._connection()
                    latencies.append(time.monotonic() - began)
                    if revalidate:
                        ok = status == 304
                    else:
                        ok = status == 200 and etag is not None and _complete_report(body)
                        etags[section] = etag or ""
                    request_failures += not ok
        finally:
            conn.close()
            tracer.tag = ""
        out[index] = {
            "results": results,
            "documents": documents,
            "latencies": latencies,
            "request_failures": request_failures,
            "requests": 2 * len(sections),
        }

    def run_pass(self, traced: bool) -> dict:
        self.passes += 1
        cache = self.workdir / f"cache-{self.passes}"
        shutil.rmtree(cache, ignore_errors=True)
        pid = self.server.pid
        if traced:
            handle0, requests0 = self._service_seconds()
            counters0 = dict(self.tracer.counters)
            self.tracer.install()
        del self._request_times[:]
        common.reset_peak_rss(pid)
        out: Dict[int, dict] = {}
        workers = [
            threading.Thread(target=self._client, args=(i, cache, out)) for i in range(self.threads)
        ]
        # The pass's CPU: both client threads (this process runs nothing
        # else meanwhile) plus the server.
        cpu = time.process_time() + common.cpu_seconds(pid)
        start = time.monotonic()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        end = time.monotonic()
        cpu = time.process_time() + common.cpu_seconds(pid) - cpu
        peak = common.peak_rss_mb(pid)
        store_request_s = list(self._request_times)
        if traced:
            self.tracer.uninstall()
            handle1, requests1 = self._service_seconds()
        result = {
            "start": start,
            "end": end,
            "wall": end - start,
            "cpu": cpu,
            "peak_rss_mb": peak,
            "ops": store_request_s + [s for part in out.values() for s in part["latencies"]],
        }
        result.update(self._check(out, cache))
        if traced:
            own_request_s = sum(sum(part["latencies"]) for part in out.values())
            client = SpanTotals(self.tracer.spans, (start, end))
            result["client"] = {
                "totals": client,
                "counters": {
                    k: v - counters0.get(k, 0) for k, v in self.tracer.counters.items()
                },
                "request_s": client.inclusive_s.get("http.request", 0.0) + own_request_s,
                "handle_s": handle1 - handle0,
                "requests": requests1 - requests0,
            }
        shutil.rmtree(cache, ignore_errors=True)
        return result

    def _check(self, out: Dict[int, dict], cache: Path) -> dict:
        """Failed ops of a pass: undelivered or wrong cells, cells whose
        cached bytes differ from the served store, failed requests."""
        digests, incomplete, vertex_rounds = {}, [], 0
        for part in out.values():
            for result in part["results"]:
                for cell, trials in result_cells(result).items():
                    digests[cell] = common.trial_digest(trials)
                    if trials.completion_rate < 1.0:
                        incomplete.append(cell)
                    vertex_rounds += trials.num_vertices * sum(
                        r.rounds_executed for r in trials.results
                    )
            for name, document in part["documents"].items():
                digests[name] = common.digest(document)
        failed = (
            self.check.failures(digests, incomplete)
            + sum(part["request_failures"] for part in out.values())
            + _mismatched_objects(cache, self.store_root)
        )
        attempted = self.check.expected + sum(part["requests"] for part in out.values())
        return {
            "attempted": attempted,
            "failed": failed,
            "vertex_rounds": vertex_rounds,
            "digests": digests,
        }

    def finish(self, results: List[dict]) -> None:
        """Per-layer metrics of the traced passes, once the server has
        written its spans (at exit)."""
        traced = [r for r in results if "client" in r]
        if not traced:
            return
        self._stop_server()
        self.tracer.dump(str(self.workdir / "client-trace.json"))
        spans, _ = load_spans(str(self.workdir / "server-trace.json"))
        for result in traced:
            client = result.pop("client")
            server = SpanTotals(spans, (result["start"], result["end"]))
            result["layers"] = pass_layers(
                client["totals"],
                client["counters"],
                wall=result["wall"],
                threads=self.threads,
                request_s=client["request_s"],
                server=server,
                handle_s=client["handle_s"],
                requests=client["requests"],
            )

    def _stop_server(self) -> None:
        if self.server is not None:
            stop(self.server)
            self.server = None

    def close(self) -> None:
        self._stop_server()
        self._clock.restore()


def _complete_report(body: bytes) -> bool:
    """Whether a ``/report/<section>.json`` body holds every cell it needs."""
    try:
        return json.loads(body).get("complete") is True
    except (ValueError, AttributeError):
        return False


def _mismatched_objects(cache: Path, store_root: Path) -> int:
    """Objects in the client cache whose bytes differ from the served store."""
    bad = 0
    objects = cache / "objects"
    if not objects.exists():
        return 0
    for path in objects.rglob("*"):
        if path.is_file():
            served = store_root / "objects" / path.relative_to(objects)
            if not served.exists() or served.read_bytes() != path.read_bytes():
                bad += 1
    return bad
