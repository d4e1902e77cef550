"""``repro store serve``: an HTTP API over a local store root.

The service is deliberately thin — stdlib :class:`ThreadingHTTPServer`, no
dependencies — because the store's integrity model does all the hard work:
objects are immutable, content-addressed and checksummed, so the server
just streams the committed bytes verbatim (an object's sidecar and payload
in one length-prefixed frame) and every client re-verifies the SHA-256 end
to end (:class:`~repro.store.backends.RemoteBackend` checks before filling
its cache, :class:`~repro.store.ResultStore` checks again on every read).
Serving a root that a sweep is concurrently writing into is safe: writes
are atomic renames ordered NPZ-before-sidecar, and the server only serves
objects whose sidecar (the commit marker) exists.

Read API (always available):

``GET /healthz``
    Liveness + store summary (object count, format/semantics versions,
    whether the write path is enabled).
``GET /cells/<key>``
    The object's JSON sidecar, verbatim.  404 when absent, 400 for a
    malformed key.
``GET /cells/<key>/object``
    The whole object in the publish wire frame of
    :func:`~repro.store.backends.base.encode_object_frame`: the sidecar and
    the compressed NPZ payload, each verbatim.  404 when the object is
    absent *or uncommitted* (NPZ present but no sidecar yet); a committed
    object whose payload is gone is framed with an empty payload, which
    fails the client's checksum.
``GET /sweeps``
    JSON ``{"sweeps": [...]}`` of the journal ids the store holds.
``GET /sweeps/<id>``
    A sweep journal (JSONL), verbatim.
``GET /sweeps/<id>/status``
    Farm queue counts and lease-accounting counters of a submitted sweep.
``GET /ls?prefix=<hex>&proto=<name>``
    JSON ``{"store", "count", "entries": [...]}`` of the ``repro store ls``
    rows, optionally filtered by key prefix and/or protocol name.
``GET /metrics``
    Prometheus text exposition of the per-server registry: request counts,
    latencies and bytes by route kind, report-cache hit/miss, farm lease
    accounting and queue depth, worker-pushed fleet health, and scrape-time
    store object/byte gauges.  See :mod:`repro.telemetry.metrics`.
``GET /report/<section>`` / ``GET /report/<section>.json``
    The experiment report rendered from cached cells only — zero simulation
    and, on a warm manifest, zero graph construction.  ``<section>`` is a
    registry experiment id, ``coupling``, ``fairness``, or ``all``; query
    params ``only`` (comma-separated section filter, mirroring the CLI's
    ``--only``), ``seed``, ``trials`` and ``scale`` select the cell set (a
    ``backend`` param naming a retired execution path answers 400).
    Rendered reports are cached in memory keyed on the request params and
    revalidated against the underlying cell-set fingerprint, so a warm
    report answers without touching the experiment code at all.

Every cacheable GET answer carries an ``ETag`` (object routes use the
content-addressed key itself; journals and listings hash their bytes;
reports use the cell-set fingerprint) and honours ``If-None-Match`` with a
``304 Not Modified``, so polling dashboards and
:class:`~repro.store.backends.RemoteBackend` readers revalidate instead of
re-downloading.

Write API (enabled only when the service is started with an auth token;
every request must carry ``Authorization: Bearer <token>``, and a service
without a token keeps answering 405 to every write, exactly as before):

``PUT /cells/<key>``
    Publish one object.  The body is the explicit-length wire frame of
    :func:`~repro.store.backends.base.encode_object_frame`; the server
    re-verifies the frame structurally *and* the payload's SHA-256 against
    the sidecar (and, when the sidecar carries its cell payload, the key
    against the payload's hash) before committing — the client-side
    fail-loud contract, mirrored server-side.  A bit-identical duplicate is
    idempotent (200); a conflicting payload is 409.
``POST /sweeps/submit``
    Register a sweep and its cell manifest with the lease farm
    (:class:`~repro.store.farm.SweepFarm`).
``POST /sweeps/<id>/lease`` / ``heartbeat`` / ``complete`` / ``fail``
    The worker protocol: grant the next missing cell, renew a lease,
    record a published cell done, release a lease early.
``POST /sweeps/<id>/metrics``
    Fleet health: a worker pushes its ``{"worker": ..., "metrics": {...}}``
    snapshot (cells completed, publish retries, degradations, heartbeat
    RTT); the hub surfaces it in the sweep status document and on
    ``GET /metrics`` as ``repro_fleet_*`` gauges.

Graceful shutdown: :meth:`StoreService.request_stop` stops accepting new
connections while in-flight requests run to completion
(:meth:`StoreService.drain`), so CI teardown and operators never observe
half-logged state — the CLI wires SIGTERM/SIGINT to exactly that sequence
and flushes the request counters on the way out.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import re
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..telemetry import MetricsRegistry, span
from .artifacts import ResultStore, StoreError
from .backends import check_key, check_sweep_id, decode_object_frame, encode_object_frame
from .backends.base import check_payload, parse_sidecar
from .farm import FarmError, SweepFarm, UnknownLeaseError, UnknownSweepError
from .keys import SEMANTICS_VERSION, STORE_FORMAT_VERSION, cell_key

__all__ = ["StoreRequestHandler", "StoreService", "serve"]

#: Upper bound on accepted request bodies (a publish of one cell object; the
#: largest registry cells are a few MB, so this is generous headroom while
#: still bounding what an unauthenticated request can make the server read).
_MAX_BODY_BYTES = 256 * 1024 * 1024

#: Prometheus exposition content type served by ``GET /metrics``.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _route_kind(route: str, method: str = "GET") -> str:
    """Collapse one request path into its bounded route-kind bucket.

    Unknown paths share one bucket — a long-running server probed with
    unique junk URLs must not grow a metric series per path.
    """
    if route.startswith("/cells/"):
        return "/cells/*/object" if route.endswith("/object") else "/cells/*"
    if route.startswith("/report/"):
        return "/report/*"
    if route == "/sweeps/submit" and method == "POST":
        return "/sweeps/submit"
    if route.startswith("/sweeps/"):
        tail = route.rsplit("/", 1)[-1]
        if tail in ("lease", "heartbeat", "complete", "fail", "status", "metrics"):
            return f"/sweeps/*/{tail}"
        return "/sweeps/*"
    if route in ("/healthz", "/ls", "/sweeps", "/metrics"):
        return route
    return "<unknown>"


class StoreRequestHandler(BaseHTTPRequestHandler):
    """One request against the served store."""

    server_version = "repro-store"
    protocol_version = "HTTP/1.1"

    #: Status of the last response sent on this connection; stamped by
    #: :meth:`send_response` so `_guarded` can label the latency metrics.
    _response_status = 0

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._response_status = code
        super().send_response(code, message)

    def _send(
        self, status: int, body: bytes, content_type: str, *, etag: Optional[str] = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if etag is not None:
            self.send_header("ETag", f'"{etag}"')
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.server.count_bytes(len(body))

    def _if_none_match(self) -> set:
        """The validators of the request's ``If-None-Match`` header, unquoted."""
        tags = set()
        for part in self.headers.get("If-None-Match", "").split(","):
            part = part.strip()
            if part.startswith("W/"):
                part = part[2:].strip()
            if part:
                tags.add(part.strip('"'))
        return tags

    def _send_validated(self, body: bytes, content_type: str, etag: str) -> None:
        """200 with an ETag, or 304 when the client already holds these bytes."""
        tags = self._if_none_match()
        if etag in tags or "*" in tags:
            self._send(304, b"", content_type, etag=etag)
            return
        self._send(200, body, content_type, etag=etag)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _valid(self, check, value: str, *, write: bool = False) -> bool:
        """Run a key or sweep-id check; on failure answer 400 and return False."""
        try:
            check(value)
        except StoreError as exc:
            (self._reject_write if write else self._error)(400, str(exc))
            return False
        return True

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _authorized(self) -> bool:
        """Check the bearer token (constant-time comparison)."""
        token = self.server.token
        if token is None:
            return False
        supplied = self.headers.get("Authorization", "")
        expected = f"Bearer {token}"
        return hmac.compare_digest(supplied.encode("utf-8"), expected.encode("utf-8"))

    def _read_body(self) -> Optional[bytes]:
        """The request body, honouring Content-Length; None on a bad length.

        A short read (the peer died or the proxy truncated mid-upload) is
        reported as None too — the caller answers 400 and the connection is
        closed, never a half-parsed publish.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            return None
        if length < 0 or length > _MAX_BODY_BYTES:
            return None
        body = self.rfile.read(length)
        if len(body) != length:
            self.close_connection = True
            return None
        return body

    def _guarded(self, dispatch) -> None:
        """Run one route dispatch inside the in-flight request window."""
        self.server.begin_request()
        self._response_status = 0
        started = time.monotonic()
        try:
            dispatch()
        finally:
            self.server.end_request()
            route = urllib.parse.urlsplit(self.path).path.rstrip("/") or "/"
            self.server.observe_request(
                _route_kind(route, self.command),
                self._response_status,
                time.monotonic() - started,
            )

    # ------------------------------------------------------------------
    # GET routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._guarded(self._do_get)

    def _do_get(self) -> None:
        parts = urllib.parse.urlsplit(self.path)
        route = parts.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(parts.query)
        store: ResultStore = self.server.store
        self.server.count_request(route)

        if route == "/healthz":
            payload = {
                "status": "ok",
                "store": str(store.root),
                "objects": len(store.backend.list_keys()),
                "format": STORE_FORMAT_VERSION,
                "semantics": SEMANTICS_VERSION,
                "writable": self.server.token is not None,
            }
            self._send_json(200, payload)
            return

        if route == "/ls":
            prefix = (query.get("prefix") or [""])[0]
            proto = (query.get("proto") or [""])[0]
            entries = [
                row
                for row in store.entries()
                if row["key"].startswith(prefix) and (not proto or row["protocol"] == proto)
            ]
            payload = {"store": str(store.root), "count": len(entries), "entries": entries}
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self._send_validated(body, "application/json", hashlib.sha256(body).hexdigest())
            return

        if route == "/metrics":
            self.server.collect_scrape_gauges()
            body = self.server.metrics.render().encode("utf-8")
            self._send(200, body, _METRICS_CONTENT_TYPE)
            return

        match = re.fullmatch(r"/cells/([^/]+)(/object)?", route)
        if match:
            key, want_object = match.group(1), bool(match.group(2))
            if not self._valid(check_key, key):
                return
            # The sidecar is the commit marker: an object without one is
            # invisible, payload included, so a half-written cell can never
            # be served.  Objects are immutable and content-addressed, so
            # the key itself is a perfect ETag for both routes.
            sidecar_bytes = store.backend.local.read_sidecar_bytes(key)
            if sidecar_bytes is None:
                self._error(404, f"no object {key}")
                return
            if not want_object:
                self._send_validated(sidecar_bytes, "application/json", key)
                return
            # A payload lost under its sidecar is framed empty, so the
            # client's checksum check rejects it loudly.
            npz_bytes = store.backend.local.read_npz_bytes(key) or b""
            # An HTTP read (or revalidation) is a read: bump the payload's
            # read stamp so `gc --max-bytes` LRU ordering sees served-hot
            # cells as hot, not as eviction candidates.
            store.backend.local.mark_read(key)
            frame = encode_object_frame(npz_bytes, sidecar_bytes)
            self._send_validated(frame, "application/octet-stream", key)
            return

        match = re.fullmatch(r"/report/([A-Za-z0-9_-]+)(\.json)?", route)
        if match:
            self._report(match.group(1), as_json=bool(match.group(2)), query=query)
            return

        if route == "/sweeps":
            self._send_json(200, {"sweeps": store.backend.local.list_sweeps()})
            return

        match = re.fullmatch(r"/sweeps/([^/]+)/status", route)
        if match:
            sweep = match.group(1)
            if not self._valid(check_sweep_id, sweep):
                return
            try:
                self._send_json(200, self.server.farm.status(sweep))
            except UnknownSweepError as exc:
                self._error(404, str(exc))
            return

        match = re.fullmatch(r"/sweeps/([^/]+)", route)
        if match:
            sweep = match.group(1)
            if not self._valid(check_sweep_id, sweep):
                return
            text = store.backend.local.read_sweep_text(sweep)
            if text is None:
                self._error(404, f"no sweep {sweep}")
                return
            body = text.encode("utf-8")
            self._send_validated(body, "application/x-ndjson", hashlib.sha256(body).hexdigest())
            return

        self._error(404, f"unknown route {route!r}")

    def _report(self, name: str, *, as_json: bool, query: Dict[str, Any]) -> None:
        """Serve ``/report/<section>[.json]`` from cached cells only.

        The experiment layer is imported lazily so the store service stays
        importable (and every other route keeps working) in stripped-down
        deployments that only ship the store package.
        """
        from ..experiments import reporting

        known = reporting.report_section_ids()
        if name == "all":
            sections = list(known)
        elif name in known:
            sections = [name]
        else:
            self._error(
                404,
                f"unknown report section {name!r}; choose from: all, {', '.join(known)}",
            )
            return
        only: list = []
        for raw in query.get("only", []):
            only.extend(part for part in raw.split(",") if part)
        if only:
            unknown = [part for part in only if part not in known]
            if unknown:
                self._error(
                    400,
                    f"unknown report section(s) {', '.join(map(repr, unknown))}; "
                    f"choose from: {', '.join(known)}",
                )
                return
            sections = [section for section in sections if section in set(only)]
        try:
            base_seed = int((query.get("seed") or ["0"])[0])
            trials_raw = (query.get("trials") or [""])[0]
            trials = int(trials_raw) if trials_raw else None
            scale = float((query.get("scale") or ["1.0"])[0])
        except ValueError:
            self._error(400, "report params seed/trials/scale must be numeric")
            return
        backend = (query.get("backend") or ["auto"])[0]
        if backend not in ("auto", "batched"):
            # Every cell runs batched; serving those cells under another
            # backend's name would mislabel them.
            self._error(400, f"unknown backend {backend!r}; cells are computed batched")
            return
        kwargs = dict(sections=sections, base_seed=base_seed, trials=trials, scale=scale)
        params = (tuple(sections), base_seed, trials, scale)
        try:
            # The cell-set fingerprint pins the exact cells a report reads:
            # it validates the in-memory render cache *and* doubles as the
            # HTTP ETag.  A cached entry is validated by report_fingerprint
            # (key derivation + stat calls); a render takes it from the
            # payload, so a cold report resolves its sweep plans once.
            cached = self.server.report_cache_get(
                params, lambda: reporting.report_fingerprint(self.server.store, **kwargs)
            )
            if cached is None:
                with span("report.render", sections=",".join(sections)):
                    payload = reporting.store_report_payload(self.server.store, **kwargs)
                    json_bytes = json.dumps(payload, sort_keys=True).encode("utf-8")
                    html_bytes = reporting.render_report_html(payload).encode("utf-8")
                fingerprint = payload["fingerprint"]
                self.server.report_cache_put(params, fingerprint, json_bytes, html_bytes)
            else:
                fingerprint, json_bytes, html_bytes = cached
        except StoreError as exc:
            self._error(500, f"report failed: {exc}")
            return
        if as_json:
            self._send_validated(json_bytes, "application/json", fingerprint)
        else:
            self._send_validated(html_bytes, "text/html; charset=utf-8", fingerprint)

    # ------------------------------------------------------------------
    # write routes (only with an auth token; read-only otherwise)
    # ------------------------------------------------------------------
    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        if self.server.token is None:
            self._read_only()
            return
        self._guarded(self._do_put)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.server.token is None:
            self._read_only()
            return
        self._guarded(self._do_post)

    def _reject_write(self, status: int, message: str) -> None:
        # The (possibly unread) request body would desync a keep-alive
        # connection, so always close after refusing a write.
        self.close_connection = True
        self._error(status, message)

    def _do_put(self) -> None:
        route = urllib.parse.urlsplit(self.path).path.rstrip("/")
        self.server.count_request(route, method="PUT")
        match = re.fullmatch(r"/cells/([^/]+)", route)
        if not match:
            self._reject_write(404, f"unknown write route {route!r}")
            return
        key = match.group(1)
        if not self._valid(check_key, key, write=True):
            return
        if not self._authorized():
            self._reject_write(401, "missing or invalid auth token")
            return
        body = self._read_body()
        if body is None:
            self._reject_write(400, "unreadable request body (bad or oversized length)")
            return
        try:
            npz_bytes, sidecar_bytes = decode_object_frame(body)
        except ValueError as exc:
            self._error(400, f"rejected publish of {key}: {exc}")
            return

        # Server-side re-verification, mirroring the client's fail-loud
        # contract: the sidecar must parse, its checksum must match the
        # payload bytes, and a self-describing sidecar must hash back to the
        # key it claims — a corrupted or mislabeled publish never commits.
        try:
            sidecar = parse_sidecar(sidecar_bytes)
        except ValueError as exc:
            self._error(400, f"rejected publish of {key}: {exc}")
            return
        if sidecar.get("key") != key:
            self._error(400, f"rejected publish of {key}: sidecar names key {sidecar.get('key')!r}")
            return
        try:
            check_payload(sidecar, npz_bytes)
        except ValueError as exc:
            self._error(400, f"rejected publish of {key}: {exc}")
            return
        if sidecar.get("cell") is not None:
            try:
                derived = cell_key(sidecar["cell"])
            except (TypeError, ValueError) as exc:
                self._error(400, f"rejected publish of {key}: uncanonical cell payload ({exc})")
                return
            if derived != key:
                self._error(
                    400,
                    f"rejected publish of {key}: cell payload hashes to {derived}",
                )
                return

        store: ResultStore = self.server.store
        existing_sidecar = store.backend.local.read_sidecar_bytes(key)
        if existing_sidecar is not None:
            existing_npz = store.backend.local.read_npz_bytes(key)
            if existing_sidecar == sidecar_bytes and existing_npz == npz_bytes:
                # Publishes are idempotent: cells are content-addressed pure
                # functions, so a bit-identical duplicate is the expected
                # outcome of two honest workers racing one cell.
                self._send_json(200, {"key": key, "status": "exists"})
                return
            self._error(
                409,
                f"conflicting publish of {key}: an object with different bytes "
                "is already committed (nondeterminism or mixed code versions)",
            )
            return
        store.backend.local.write_object(key, npz_bytes, sidecar_bytes)
        self._send_json(201, {"key": key, "status": "committed"})

    def _do_post(self) -> None:
        route = urllib.parse.urlsplit(self.path).path.rstrip("/")
        self.server.count_request(route, method="POST")
        if not self._authorized():
            self._reject_write(401, "missing or invalid auth token")
            return
        body = self._read_body()
        if body is None:
            self._reject_write(400, "unreadable request body (bad or oversized length)")
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"unparsable JSON body: {exc}")
            return
        farm: SweepFarm = self.server.farm

        if route == "/sweeps/submit":
            sweep = payload.get("sweep")
            cells = payload.get("cells")
            if not isinstance(sweep, dict) or not isinstance(cells, list):
                self._error(400, "submit body needs {'sweep': {...}, 'cells': [...]}")
                return
            try:
                self._send_json(200, farm.submit(sweep, cells))
            except FarmError as exc:
                self._error(409, str(exc))
            return

        match = re.fullmatch(
            r"/sweeps/([^/]+)/(lease|heartbeat|complete|fail|metrics)", route
        )
        if not match:
            self._error(404, f"unknown write route {route!r}")
            return
        sweep_id, action = match.group(1), match.group(2)
        if not self._valid(check_sweep_id, sweep_id):
            return
        try:
            if action == "lease":
                grant = farm.lease(sweep_id, str(payload.get("worker", "")))
                if grant is None:
                    self._send_json(200, {"granted": False, **farm.status(sweep_id)})
                else:
                    self._send_json(200, {"granted": True, **grant})
            elif action == "heartbeat":
                self._send_json(200, farm.heartbeat(sweep_id, str(payload.get("lease", ""))))
            elif action == "metrics":
                result = farm.worker_metrics(
                    sweep_id,
                    str(payload.get("worker", "")),
                    payload.get("metrics") or {},
                )
                self._send_json(200, result)
            elif action == "complete":
                result = farm.complete(
                    sweep_id,
                    str(payload.get("lease", "")),
                    key=str(payload.get("key", "")),
                    worker=str(payload.get("worker", "")),
                )
                self._send_json(200, result)
            else:  # fail
                result = farm.fail(
                    sweep_id,
                    str(payload.get("lease", "")),
                    reason=str(payload.get("reason", "")),
                )
                self._send_json(200, result)
        except UnknownSweepError as exc:
            self._error(404, str(exc))
        except UnknownLeaseError as exc:
            self._error(409, str(exc))
        except FarmError as exc:
            self._error(400, str(exc))

    # Without a token the store service is read-only by construction; refuse
    # writes loudly rather than letting http.server's default 501 suggest
    # "not yet".
    def _read_only(self) -> None:
        # The unread request body would desync a keep-alive connection (its
        # bytes would parse as the next request line), so close after
        # responding instead of draining arbitrarily large uploads.
        self.close_connection = True
        self._error(405, "the store service is read-only")

    do_DELETE = do_PATCH = _read_only

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)


class _StoreHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the store, farm, auth and counters."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        store: ResultStore,
        *,
        quiet: bool,
        token: Optional[str] = None,
        lease_ttl: float = 60.0,
    ) -> None:
        super().__init__(address, StoreRequestHandler)
        self.store = store
        self.quiet = quiet
        self.token = token
        # Per-server registry: two services in one process (a common test
        # shape) must never see each other's request counts, so nothing
        # here lands in the process-global default registry.
        self.metrics = MetricsRegistry()
        self._requests_total = self.metrics.counter(
            "repro_service_requests_total",
            "Requests received, by route kind and HTTP method.",
            labels=("route", "method"),
        )
        self._responses_total = self.metrics.counter(
            "repro_service_responses_total",
            "Responses sent, by route kind and status code.",
            labels=("route", "status"),
        )
        self._request_seconds = self.metrics.histogram(
            "repro_service_request_seconds",
            "Request handling latency, by route kind.",
            labels=("route",),
        )
        self._bytes_sent = self.metrics.counter(
            "repro_service_bytes_sent_total",
            "Response body bytes written to clients.",
        )
        self._report_cache_hits = self.metrics.counter(
            "repro_report_cache_hits_total",
            "Report requests answered from the fingerprint-validated render cache.",
        )
        self._report_cache_misses = self.metrics.counter(
            "repro_report_cache_misses_total",
            "Report requests that had to render (cold or stale cache entry).",
        )
        self.farm = SweepFarm(store, lease_ttl=lease_ttl, registry=self.metrics)
        self._counter_lock = threading.Lock()
        self._in_flight = 0
        self._idle = threading.Condition(self._counter_lock)
        self._report_lock = threading.Lock()
        self._report_cache: Dict[tuple, Tuple[str, bytes, bytes]] = {}

    # ------------------------------------------------------------------
    # rendered-report cache (validated by the cell-set fingerprint)
    # ------------------------------------------------------------------
    def report_cache_get(
        self, params: tuple, fingerprint: Callable[[], str]
    ) -> Optional[Tuple[str, bytes, bytes]]:
        """Cached ``(fingerprint, json, html)`` for ``params`` iff still fresh.

        ``fingerprint`` computes the current cell-set fingerprint; it runs
        only when there is an entry to validate.
        """
        with self._report_lock:
            entry = self._report_cache.get(params)
        if entry is not None and entry[0] == fingerprint():
            self._report_cache_hits.inc()
            return entry
        self._report_cache_misses.inc()
        return None

    def report_cache_put(
        self, params: tuple, fingerprint: str, json_bytes: bytes, html_bytes: bytes
    ) -> None:
        with self._report_lock:
            # Bounded: a long-running server probed with many param combos
            # must not hoard renders; drop the oldest insertion beyond 32.
            while len(self._report_cache) >= 32:
                self._report_cache.pop(next(iter(self._report_cache)))
            self._report_cache[params] = (fingerprint, json_bytes, html_bytes)

    def count_request(self, route: str, *, method: str = "GET") -> None:
        """Tally one request per route kind (observability + test hooks).

        The tally lives in the per-server metrics registry (labeled by route
        kind and method) and is therefore served live by ``GET /metrics`` —
        not only flushed at shutdown.  Write methods get their own buckets
        (``PUT /cells/*``, ``POST /sweeps/*/lease``, ...) so farm traffic is
        visible next to the read-path counters.
        """
        self._requests_total.labels(route=_route_kind(route, method), method=method).inc()

    @property
    def request_counts(self) -> Dict[str, int]:
        """The historical flat counter view, derived from the registry.

        Keys keep their pre-registry shape — bare route kinds for GETs,
        ``"<METHOD> <kind>"`` for writes — so the CLI shutdown banner and
        the exact-count assertions in the test suite are unchanged.
        """
        counts: Dict[str, int] = {}
        for values, series in self._requests_total.series_items():
            route, method = values
            key = route if method == "GET" else f"{method} {route}"
            value = int(series.value)
            if value:
                counts[key] = counts.get(key, 0) + value
        return counts

    def observe_request(self, kind: str, status: int, elapsed: float) -> None:
        """Record one finished request's status and latency."""
        self._responses_total.labels(route=kind, status=str(status or 0)).inc()
        self._request_seconds.labels(route=kind).observe(elapsed)

    def count_bytes(self, nbytes: int) -> None:
        if nbytes:
            self._bytes_sent.inc(nbytes)

    def collect_scrape_gauges(self) -> None:
        """Refresh scrape-time gauges: store contents and farm queue depth.

        Called per ``/metrics`` request rather than continuously — gauges
        describe current state, so computing them anywhere else would only
        buy staleness.
        """
        local = self.store.backend.local
        keys = local.list_keys()
        total = 0
        for key in keys:
            total += local.object_size(key) or 0
        self.metrics.gauge(
            "repro_store_objects", "Committed objects in the served store."
        ).set(len(keys))
        self.metrics.gauge(
            "repro_store_bytes", "Committed object bytes in the served store."
        ).set(total)
        self.farm.export_queue_gauges()

    # ------------------------------------------------------------------
    # in-flight accounting (graceful shutdown)
    # ------------------------------------------------------------------
    def begin_request(self) -> None:
        with self._idle:
            self._in_flight += 1

    def end_request(self) -> None:
        with self._idle:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight (True) or timeout (False)."""
        with self._idle:
            return self._idle.wait_for(lambda: self._in_flight == 0, timeout=timeout)


class StoreService:
    """A running (or startable) store service bound to a host/port.

    Usable as a context manager in tests and long-running via
    :meth:`serve_forever` from the CLI::

        with StoreService(store_root, port=0) as service:
            remote = ResultStore(service.url, cache=cache_dir)
            ...

    ``port=0`` binds an ephemeral port; read the resolved one from
    :attr:`url`.  Only local store roots can be served — fronting a remote
    store would re-proxy bytes the client could fetch directly.  Passing
    ``token`` enables the authenticated write path (publishes and the sweep
    farm); without one the service is read-only, exactly as before.
    """

    def __init__(
        self,
        root: Union[str, Path, ResultStore],
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        quiet: bool = True,
        token: Optional[str] = None,
        lease_ttl: float = 60.0,
    ) -> None:
        store = root if isinstance(root, ResultStore) else ResultStore(root)
        if store.backend.local is not store.backend:
            raise StoreError(f"can only serve a local store root, not {store.root!r}")
        self.store = store
        self.server = _StoreHTTPServer(
            (host, port), store, quiet=quiet, token=token, lease_ttl=lease_ttl
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """Base URL of the bound service (with the resolved port)."""
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def request_counts(self) -> Dict[str, int]:
        """Requests served so far, keyed by route kind."""
        return dict(self.server.request_counts)

    @property
    def farm(self) -> SweepFarm:
        """The lease work queue behind the farm endpoints."""
        return self.server.farm

    def start(self) -> "StoreService":
        """Serve on a daemon thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                # A tight poll interval keeps shutdown() prompt (the default
                # 0.5s poll makes every test teardown pay half a second).
                target=lambda: self.server.serve_forever(poll_interval=0.05),
                name="repro-store-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def request_stop(self) -> None:
        """Ask the serve loop to exit without waiting for it.

        Safe to call from a signal handler: ``shutdown()`` blocks until the
        loop notices, which would deadlock a handler running *on* the
        serving thread, so the blocking wait is pushed onto a helper thread.
        """
        threading.Thread(target=self.server.shutdown, daemon=True).start()

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait for in-flight requests to finish; True when fully idle."""
        return self.server.wait_idle(timeout)

    def stop(self) -> None:
        """Shut the server down, drain in-flight requests, release the port."""
        self.server.shutdown()
        self.drain(timeout=5.0)
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            self.server.serve_forever()
        finally:
            self.drain(timeout=10.0)
            self.server.server_close()

    def __enter__(self) -> "StoreService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(
    root: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = False,
    token: Optional[str] = None,
    lease_ttl: float = 60.0,
) -> StoreService:
    """Construct (without starting) a service over ``root`` — CLI entry point."""
    return StoreService(root, host=host, port=port, quiet=quiet, token=token, lease_ttl=lease_ttl)
