"""Tests for the unified telemetry layer (metrics, tracing, logging).

The layer's contract has two halves.  Outward: the store service renders a
valid Prometheus text exposition at ``GET /metrics`` covering request,
farm-queue and fleet-health accounting, and the ``repro trace`` CLI
reconstructs per-phase wall time from span files.  Inward: telemetry
observes without participating — fixed-seed results and store keys are
bit-identical with tracing and metrics on or off, spans cost a no-op
object when disabled, and a runaway label cannot grow a registry without
bound.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import urllib.request

import numpy as np
import pytest

from repro.experiments.config import GraphCase, ProtocolSpec
from repro.experiments.runner import run_trial_set
from repro.graphs import random_regular_graph, star
from repro.store import (
    RemoteBackend,
    ResultStore,
    StoreService,
    StoreUnavailableError,
    resolve_cell,
)
from repro.store.farm import FarmError, SweepFarm
from repro.telemetry import (
    LOG_ENV_VAR,
    TRACE_ENV_VAR,
    Counter,
    MetricError,
    MetricsRegistry,
    chrome_trace,
    default_registry,
    get_logger,
    kv,
    read_events,
    span,
    summarize_events,
    trace_enabled,
    trace_event,
    trace_files,
)
from repro.telemetry.metrics import DEFAULT_MAX_SERIES, OVERFLOW_LABEL


class TestMetricsRegistry:
    def test_concurrent_increments_are_lossless(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000

    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", labels=("route",))
        second = registry.counter("c_total", "other help", labels=("route",))
        assert first is second

    def test_kind_and_label_mismatches_are_loud(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("route",))
        with pytest.raises(MetricError):
            registry.gauge("c_total")
        with pytest.raises(MetricError):
            registry.counter("c_total", labels=("other",))
        with pytest.raises(MetricError):
            registry.counter("c_total", labels=("route",)).labels(wrong="x")
        with pytest.raises(MetricError):
            registry.counter("bad name")
        with pytest.raises(MetricError):
            registry.counter("negatives_total").inc(-1)

    def test_cardinality_guard_collapses_to_overflow_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("who",), max_series=4)
        for i in range(50):
            counter.labels(who=f"worker-{i}").inc()
        series = dict(counter.series_items())
        assert len(series) == 5  # 4 real + the overflow bucket
        assert series[(OVERFLOW_LABEL,)].value == 46
        assert counter.value == 50
        assert DEFAULT_MAX_SERIES >= 4  # the default cap exists and is sane

    def test_prometheus_text_rendering_golden(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "Requests.", labels=("route",))
        counter.labels(route="/healthz").inc(3)
        registry.gauge("depth", "Queue depth.").set(7)
        histogram = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert registry.render() == (
            "# HELP depth Queue depth.\n"
            "# TYPE depth gauge\n"
            "depth 7\n"
            "# HELP lat_seconds Latency.\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 3\n'
            "lat_seconds_sum 5.55\n"
            "lat_seconds_count 3\n"
            "# HELP req_total Requests.\n"
            "# TYPE req_total counter\n"
            'req_total{route="/healthz"} 3\n'
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("k",)).labels(k='a"b\\c\nd').inc()
        assert 'c_total{k="a\\"b\\\\c\\nd"} 1' in registry.render()

    def test_counter_value_never_creates(self):
        registry = MetricsRegistry()
        assert registry.counter_value("absent_total") == 0.0
        assert registry.collect() == []
        registry.counter("present_total").inc(2)
        assert registry.counter_value("present_total") == 2.0

    def test_snapshot_flattens_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("who",)).labels(who="w1").inc(4)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        flat = registry.snapshot()
        assert flat["c_total{who=w1}"] == 4.0
        assert flat["h_seconds_count"] == 1.0
        assert flat["h_seconds_sum"] == 0.5

    def test_default_registry_is_a_process_singleton(self):
        assert default_registry() is default_registry()
        assert isinstance(default_registry().counter("repro_test_total"), Counter)


class TestTracing:
    def test_disabled_spans_are_one_shared_noop(self, monkeypatch, tmp_path):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        assert not trace_enabled()
        assert span("a") is span("b", n=3)  # the singleton: zero allocation
        with span("a"):
            trace_event("nothing")
        assert list(tmp_path.iterdir()) == []

    def test_enabled_spans_record_nesting_and_attrs(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        assert trace_enabled()
        with span("outer", n=8):
            with span("inner"):
                trace_event("tick", round=3)
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")
        events = {e["name"]: e for e in read_events(trace_files(str(tmp_path)))}
        assert set(events) == {"outer", "inner", "tick", "failing"}
        assert events["outer"]["depth"] == 0 and "parent" not in events["outer"]
        assert events["inner"]["depth"] == 1
        assert events["inner"]["parent"] == "outer"
        assert events["outer"]["attrs"] == {"n": 8}
        assert events["tick"]["ph"] == "i"
        assert events["tick"]["attrs"] == {"round": 3}
        assert events["failing"]["error"] == "RuntimeError"
        for event in events.values():
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_summary_reconstructs_per_phase_wall_time(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        for _ in range(3):
            with span("phase.a"):
                pass
        with span("phase.b"):
            pass
        trace_event("phase.a")  # instantaneous: counted, no time
        rows = summarize_events(read_events(trace_files(str(tmp_path))))
        by_phase = {row["phase"]: row for row in rows}
        assert by_phase["phase.a"]["count"] == 3
        assert by_phase["phase.a"]["events"] == 1
        assert by_phase["phase.b"]["count"] == 1
        for row in rows:
            assert row["total_seconds"] >= row["max_seconds"] >= row["min_seconds"]
            assert row["mean_seconds"] * row["count"] == pytest.approx(
                row["total_seconds"]
            )

    def test_chrome_export_shape(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with span("outer"):
            trace_event("mark")
        entries = chrome_trace(read_events(trace_files(str(tmp_path))))
        assert [e["ts"] for e in entries] == sorted(e["ts"] for e in entries)
        by_name = {e["name"]: e for e in entries}
        assert by_name["outer"]["ph"] == "X" and by_name["outer"]["dur"] >= 0
        assert by_name["mark"]["ph"] == "i" and by_name["mark"]["s"] == "t"
        json.dumps(entries)  # must be valid JSON payload material

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace-1.jsonl"
        path.write_text('{"name": "ok", "ph": "i", "ts": 1}\nnot json\n[3]\n{"x": 1}\n')
        events = read_events([path])
        assert [e["name"] for e in events] == ["ok"]


class TestLogging:
    def test_kv_quotes_only_awkward_values(self):
        assert kv(a=1, b="plain") == "a=1 b=plain"
        assert kv(url="http://h:1/p") == "url=http://h:1/p"
        assert kv(msg="two words") == 'msg="two words"'
        assert kv(eq="a=b") == 'eq="a=b"'
        assert kv(q='say "hi"') == 'q="say \\"hi\\""'
        assert kv(empty="") == 'empty=""'

    def test_loggers_propagate_when_env_unset(self, monkeypatch, caplog):
        # With REPRO_LOG unset nothing is configured, so pytest's caplog
        # (which relies on propagation to the root logger) sees records.
        monkeypatch.delenv(LOG_ENV_VAR, raising=False)
        logger = get_logger("store.test")
        assert logger.name == "repro.store.test"
        with caplog.at_level(logging.INFO, logger="repro.store.test"):
            logger.info("lease granted %s", kv(sweep="s", key="k"))
        assert "lease granted sweep=s key=k" in caplog.text


def star_case(size=30):
    return GraphCase(graph=star(size), source=0, size_parameter=size)


@pytest.fixture
def served_store(tmp_path):
    store = ResultStore(tmp_path / "served")
    run_trial_set(
        ProtocolSpec("push"),
        star_case(),
        trials=2,
        base_seed=0,
        experiment_id="telemetry-test",
        store=store,
    )
    return store


def http_get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read(), response.headers


class TestServiceMetricsEndpoint:
    def test_metrics_scrape_covers_requests_and_store(self, served_store):
        with StoreService(served_store, port=0) as service:
            http_get(service.url + "/healthz")
            key = next(served_store.keys())
            http_get(f"{service.url}/cells/{key}/object")
            status, body, headers = http_get(service.url + "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in headers["Content-Type"]
            text = body.decode("utf-8")
            assert "# TYPE repro_service_requests_total counter" in text
            assert (
                'repro_service_requests_total{route="/healthz",method="GET"} 1'
                in text
            )
            assert (
                'repro_service_requests_total{route="/cells/*/object",method="GET"} 1'
                in text
            )
            assert 'repro_service_responses_total{route="/healthz",status="200"} 1' in text
            assert "repro_service_request_seconds_bucket" in text
            assert "repro_store_objects 1" in text
            assert "repro_farm_cells{" in text  # queue gauges exist (all zero)
            # The latency histogram counted the completed requests.
            flat = service.server.metrics.snapshot()
            assert flat["repro_service_request_seconds_count{route=/healthz}"] == 1.0

    def test_request_counts_banner_contract_is_preserved(self, served_store):
        with StoreService(served_store, port=0) as service:
            http_get(service.url + "/healthz")
            http_get(service.url + "/healthz")
            http_get(service.url + "/metrics")
            counts = service.request_counts
            assert counts == {"/healthz": 2, "/metrics": 1}
            banner = ", ".join(
                f"{route}={count}" for route, count in sorted(counts.items())
            )
            assert banner == "/healthz=2, /metrics=1"

    def test_two_services_do_not_share_counts(self, served_store, tmp_path):
        other = ResultStore(tmp_path / "other")
        with StoreService(served_store, port=0) as a, StoreService(other, port=0) as b:
            http_get(a.url + "/healthz")
            assert a.request_counts == {"/healthz": 1}
            assert b.request_counts == {}


class TestFarmFleetMetrics:
    def make_farm(self, tmp_path, cells=2):
        store = ResultStore(tmp_path / "farm")
        registry = MetricsRegistry()
        farm = SweepFarm(store, lease_ttl=60.0, registry=registry)
        manifest = [
            {"index": i, "size": 8 * (i + 1), "protocol": "push", "key": f"{i:x}" * 64}
            for i in range(cells)
        ]
        status = farm.submit({"experiment_id": "fleet-test", "base_seed": 0}, manifest)
        return farm, registry, status["sweep"]

    def test_worker_metrics_validate_and_surface(self, tmp_path):
        farm, registry, sid = self.make_farm(tmp_path)
        assert "workers" not in farm.status(sid)  # shape unchanged until a push
        result = farm.worker_metrics(
            sid,
            "w-1",
            {
                "cells_completed": 3,
                "heartbeat_rtt_seconds": 0.012,
                "Bad Name": 1,
                "nan_metric": float("nan"),
                "stringy": "not-a-number",
            },
        )
        assert result["accepted"] == ["cells_completed", "heartbeat_rtt_seconds"]
        workers = farm.status(sid)["workers"]
        assert workers["w-1"]["cells_completed"] == 3
        rendered = registry.render()
        assert "# TYPE repro_fleet_cells_completed gauge" in rendered
        assert f'repro_fleet_cells_completed{{sweep="{sid}",worker="w-1"}} 3' in rendered

    def test_worker_metrics_require_a_worker_name(self, tmp_path):
        farm, _registry, sid = self.make_farm(tmp_path)
        with pytest.raises(FarmError):
            farm.worker_metrics(sid, "", {"cells_completed": 1})
        with pytest.raises(FarmError):
            farm.worker_metrics(sid, "w" * 65, {"cells_completed": 1})

    def test_queue_gauges_track_states(self, tmp_path):
        farm, registry, sid = self.make_farm(tmp_path, cells=2)
        farm.lease(sid, "w")
        farm.export_queue_gauges()
        flat = registry.snapshot()
        assert flat["repro_farm_cells{state=leased}"] == 1.0
        assert flat["repro_farm_cells{state=pending}"] == 1.0
        assert flat["repro_farm_cells{state=done}"] == 0.0
        assert flat["repro_farm_sweeps"] == 1.0
        assert flat["repro_farm_granted_total"] == 1.0

    def test_lease_stats_and_registry_move_together(self, tmp_path):
        farm, registry, sid = self.make_farm(tmp_path, cells=1)
        farm.lease(sid, "w")
        assert farm.status(sid)["stats"]["granted"] == 1
        assert registry.counter_value("repro_farm_granted_total") == 1.0


class TestRemoteRetryTelemetry:
    @pytest.fixture
    def dead_url(self):
        # Bind-then-close guarantees a port nothing listens on right now.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return f"http://127.0.0.1:{port}"

    def test_each_retry_attempt_is_counted_and_logged(
        self, dead_url, tmp_path, caplog, monkeypatch
    ):
        monkeypatch.delenv(LOG_ENV_VAR, raising=False)
        registry = default_registry()
        attempts_before = registry.counter_value("repro_remote_attempt_failures_total")
        outages_before = registry.counter_value("repro_remote_unavailable_total")
        backend = RemoteBackend(
            dead_url, cache=tmp_path / "cache", retries=2, backoff=0.0
        )
        with caplog.at_level(logging.DEBUG, logger="repro.store.remote"):
            with pytest.raises(StoreUnavailableError):
                backend.healthz()
        made = registry.counter_value("repro_remote_attempt_failures_total")
        assert made - attempts_before == 3  # retries=2 means 3 attempts
        assert registry.counter_value("repro_remote_unavailable_total") - outages_before == 1
        attempt_logs = [
            record.getMessage()
            for record in caplog.records
            if "request attempt failed" in record.getMessage()
        ]
        assert len(attempt_logs) == 3
        assert f"url={dead_url}" in attempt_logs[0]
        assert "attempt=1/3" in attempt_logs[0]
        assert "attempt=3/3" in attempt_logs[2]
        assert "elapsed=" in attempt_logs[0]

    def test_client_counters_have_no_off_switch(self, dead_url, tmp_path, monkeypatch):
        # The retired REPRO_METRICS=0 kill switch no longer silences them.
        monkeypatch.setenv("REPRO_METRICS", "0")
        registry = default_registry()
        before = registry.counter_value("repro_remote_attempt_failures_total")
        backend = RemoteBackend(
            dead_url, cache=tmp_path / "cache", retries=1, backoff=0.0
        )
        with pytest.raises(StoreUnavailableError):
            backend.healthz()
        assert registry.counter_value("repro_remote_attempt_failures_total") - before == 2


class TestBitIdentity:
    """Telemetry observes, it never participates."""

    def _run(self, store_root):
        graph = random_regular_graph(64, 6, np.random.default_rng(3))
        case = GraphCase(graph=graph, source=0, size_parameter=64)
        spec = ProtocolSpec("push")
        plan = resolve_cell(
            spec, case, trials=4, base_seed=11, experiment_id="identity-test"
        )
        trial_set = run_trial_set(
            spec,
            case,
            trials=4,
            base_seed=11,
            experiment_id="identity-test",
            store=ResultStore(store_root),
        )
        return plan.key, trial_set

    def test_results_and_store_keys_identical_with_telemetry_on_and_off(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        bare_key, bare = self._run(tmp_path / "bare")

        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path / "traces"))
        traced_key, traced = self._run(tmp_path / "traced")

        assert traced_key == bare_key
        assert traced == bare
        assert traced.broadcast_times() == bare.broadcast_times()
        # The traced leg actually traced: the store-key phase and the kernel
        # round loop both left spans behind.
        phases = {
            event["name"]
            for event in read_events(trace_files(str(tmp_path / "traces")))
        }
        assert {"store.key", "kernel.rounds", "cell.execute", "store.write"} <= phases
