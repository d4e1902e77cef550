"""HTTP store backend: a remote store service + a local read-through cache.

``RemoteBackend("http://host:port")`` speaks the API of ``repro store
serve`` (:mod:`repro.store.service`) and caches every object it fetches
into a local :class:`~repro.store.backends.local.LocalBackend`, so repeated
``get_trial_set`` calls never re-fetch: the first read of a key costs one
``GET /cells/<key>/object``, whose body frames the sidecar and the NPZ
payload together (:func:`~repro.store.backends.base.encode_object_frame`,
the frame a publish sends), and every later read is served from disk
without touching the network.

Listing (``/ls``) and journal (``/sweeps/<id>``) responses — which change
as sweeps run and therefore cannot be cached by content address — are
revalidated with ``If-None-Match`` conditional GETs: the backend remembers
the last ``(ETag, body)`` per URL, and an unchanged poll costs a ``304``
with an empty body instead of a re-download.

Integrity is verified *before* the cache commit: the frame must hold
exactly its declared lengths and its NPZ bytes must match its sidecar's
SHA-256 (a hub that lost a payload frames it empty, which fails here),
otherwise the object is discarded and
:class:`~repro.store.StoreCorruptionError` raised — a corrupt or truncated
transfer can never poison the cache.  The facade then re-verifies on every
read as usual, so the checksum holds end to end across the transport.

Fault tolerance, layered bottom-up:

* **bounded retries** — idempotent requests (all GETs, publish PUTs, and
  farm POSTs explicitly flagged idempotent) are retried up to ``retries``
  times on transport errors and transient HTTP statuses (408/429/5xx),
  with exponential backoff and jitter so a fleet of workers hammering one
  recovering hub does not re-synchronize into thundering herds;
* **clear failure** — when the hub stays unreachable the client raises
  :class:`~repro.store.StoreUnavailableError` carrying the attempted URL
  and a retry summary, never a raw ``URLError`` traceback;
* **circuit breaker** — after an exhausted retry loop the backend marks the
  hub down for a short cooldown and fails subsequent requests immediately,
  so a dead hub costs one timeout per cooldown window rather than one per
  object;
* **graceful degradation** — with ``degrade=True`` (the read-path default
  via :class:`~repro.store.ResultStore` is off; sweeps opt in) reads fall
  back to the local cache when the hub is unreachable: a warm cache keeps
  serving, a cold key is reported as a plain miss and recomputed locally.

Writes land in the local cache; with ``publish=True`` (requires ``token``)
each computed cell is *also* pushed to the hub through the authenticated
``PUT /cells/<key>`` write path, framed with explicit lengths (see
:func:`~repro.store.backends.base.encode_object_frame`) and re-verified
server-side before commit.  Only configuration (URL, cache root, token,
retry policy) crosses process boundaries — each worker process opens its
own connections — so the backend pickles cleanly into the parallel cell
scheduler.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ...telemetry import default_registry, get_logger, kv, span
from .base import (
    StoreBackend,
    check_key,
    check_payload,
    check_sweep_id,
    decode_object_frame,
    encode_object_frame,
    parse_sidecar,
)
from .local import LocalBackend

__all__ = ["CACHE_ENV_VAR", "RemoteBackend", "default_cache_root", "is_store_url"]

_LOG = get_logger("store.remote")


def _count(name: str, help: str) -> None:
    """Bump a client-side counter in the process-global default registry.

    Deliberately module-level (not instance state): backends are pickled
    into worker processes and rebuilt on unpickle, and the counters' only
    consumer — the worker's fleet-health push — reads the global registry.
    """
    default_registry().counter(name, help).inc()


#: Environment variable overriding where remote backends cache objects.
CACHE_ENV_VAR = "REPRO_STORE_CACHE"

#: HTTP statuses worth retrying: the request may succeed on a healthy
#: instant even though this attempt failed.
_TRANSIENT_STATUSES = frozenset({408, 429, 500, 502, 503, 504})

#: How long an exhausted retry loop marks the hub down (seconds).  During
#: the cooldown requests fail immediately instead of re-paying the full
#: timeout-times-retries cost per call.
_DOWN_COOLDOWN = 5.0


#: How many conditional-GET validators (ETag + last body) to keep per
#: backend.  Only listing/journal paths use these — object reads are cached
#: on disk by content address — so the memo stays tiny.
_CONDITIONAL_MEMO_CAP = 64


def is_store_url(value: Any) -> bool:
    """True when ``value`` is an ``http(s)://`` store-service URL."""
    return isinstance(value, str) and value.lower().startswith(("http://", "https://"))


def _strip_etag(raw: Optional[str]) -> Optional[str]:
    """Unquote an ``ETag`` header value (weak validators included)."""
    if raw is None:
        return None
    value = raw.strip()
    if value.startswith("W/"):
        value = value[2:].strip()
    return value.strip('"') or None


def default_cache_root(url: str) -> Path:
    """Cache root for a store URL: ``$REPRO_STORE_CACHE`` or a per-URL dir.

    Without the override, each URL gets its own directory under the user
    cache dir (``$XDG_CACHE_HOME`` or ``~/.cache``), keyed by a hash of the
    normalized URL so two services never share (or clobber) a cache.
    """
    override = os.environ.get(CACHE_ENV_VAR, "").strip()
    if override:
        return Path(override)
    base = Path(os.environ.get("XDG_CACHE_HOME", "") or Path.home() / ".cache")
    digest = hashlib.sha256(url.rstrip("/").encode("utf-8")).hexdigest()[:16]
    return base / "repro-store" / digest


class _HTTPStatusError(Exception):
    """Internal: a non-retryable HTTP error status, with the response body."""

    def __init__(self, code: int, body: bytes) -> None:
        self.code = code
        self.body = body
        super().__init__(f"HTTP {code}")

    def detail(self) -> str:
        """The server's ``error`` field when the body is JSON, else the code."""
        try:
            parsed = json.loads(self.body.decode("utf-8"))
            return str(parsed.get("error", f"HTTP {self.code}"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return f"HTTP {self.code}"


class RemoteBackend(StoreBackend):
    """Read (and optionally publish) store objects over HTTP, through a cache."""

    def __init__(
        self,
        url: str,
        *,
        cache: Union[None, str, Path, LocalBackend] = None,
        timeout: float = 30.0,
        token: Optional[str] = None,
        publish: bool = False,
        retries: int = 3,
        backoff: float = 0.25,
        degrade: bool = False,
    ) -> None:
        if not is_store_url(url):
            raise ValueError(f"not a store service URL: {url!r}")
        if publish and not token:
            raise ValueError("publish=True needs an auth token (the write path is authenticated)")
        self.url = url.rstrip("/")
        if isinstance(cache, LocalBackend):
            self.cache = cache
        else:
            self.cache = LocalBackend(cache if cache is not None else default_cache_root(self.url))
        self.timeout = float(timeout)
        self.token = token
        self.publish = bool(publish)
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.degrade = bool(degrade)
        self._lock = threading.Lock()
        self._conditional_memo: Dict[str, Tuple[str, bytes]] = {}
        self._down_until = 0.0
        self._down_reason = ""
        self._warned_down = False

    def __repr__(self) -> str:
        return f"RemoteBackend({self.url!r}, cache={str(self.cache.root)!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RemoteBackend)
            and self.url == other.url
            and self.cache == other.cache
            and self.token == other.token
            and self.publish == other.publish
        )

    def __hash__(self) -> int:
        return hash((RemoteBackend, self.url, self.cache, self.publish))

    # Locks don't pickle; workers rebuild their own lock, memo and breaker.
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "cache": self.cache,
            "timeout": self.timeout,
            "token": self.token,
            "publish": self.publish,
            "retries": self.retries,
            "backoff": self.backoff,
            "degrade": self.degrade,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.url = state["url"]
        self.cache = state["cache"]
        self.timeout = state["timeout"]
        self.token = state.get("token")
        self.publish = state.get("publish", False)
        self.retries = state.get("retries", 3)
        self.backoff = state.get("backoff", 0.25)
        self.degrade = state.get("degrade", False)
        self._lock = threading.Lock()
        self._conditional_memo = {}
        self._down_until = 0.0
        self._down_reason = ""
        self._warned_down = False

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def location(self) -> str:
        return self.url

    @property
    def local(self) -> LocalBackend:
        return self.cache

    # ------------------------------------------------------------------
    # HTTP plumbing: retries, backoff, circuit breaker
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        *,
        data: Optional[bytes] = None,
        query: Optional[Dict[str, str]] = None,
        idempotent: bool = True,
        content_type: Optional[str] = None,
        etag: Optional[str] = None,
    ) -> Tuple[int, bytes, Optional[str]]:
        """One service request; ``(status, body, etag)`` for 2xx, 304 and 404.

        ``etag`` (when given) rides out as ``If-None-Match``, so a server
        holding unchanged bytes answers ``304`` with an empty body instead of
        re-sending them.  Other statuses raise :class:`_HTTPStatusError`
        (non-transient) or are retried (transient, when ``idempotent``).
        Transport failures on idempotent requests retry with exponential
        backoff and jitter; an exhausted loop raises
        :class:`~repro.store.StoreUnavailableError` and opens the circuit
        breaker for a short cooldown.  Non-idempotent requests are attempted
        exactly once — re-sending one after an ambiguous failure could
        double-apply it, so the caller owns that decision.
        """
        from ..artifacts import StoreUnavailableError

        now = time.monotonic()
        if now < self._down_until:
            remaining = self._down_until - now
            raise StoreUnavailableError(
                self.url,
                f"marked down for another {remaining:.1f}s after: {self._down_reason}",
                attempts=0,
                elapsed=0.0,
            )
        url = self.url + path
        if query:
            url += "?" + urllib.parse.urlencode(query)
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        if content_type:
            headers["Content-Type"] = content_type
        if etag is not None:
            headers["If-None-Match"] = f'"{etag}"'
        attempts = self.retries + 1 if idempotent else 1
        started = time.monotonic()
        last_reason = "unknown error"

        def _attempt_failed(attempt_index: int, reason: str) -> None:
            # Every failed attempt is visible: a DEBUG line with enough
            # context to reconstruct the retry schedule, and a counter the
            # fault-proxy CI job (and the worker fleet push) can assert on.
            _count(
                "repro_remote_attempt_failures_total",
                "Failed request attempts against store services (each retryable failure).",
            )
            _LOG.debug(
                "request attempt failed %s",
                kv(
                    url=self.url,
                    method=method,
                    path=path,
                    attempt=f"{attempt_index + 1}/{attempts}",
                    elapsed=round(time.monotonic() - started, 4),
                    reason=reason,
                ),
            )

        for attempt in range(attempts):
            if attempt:
                delay = self.backoff * (2 ** (attempt - 1))
                time.sleep(delay * random.uniform(0.5, 1.5))
            request = urllib.request.Request(url, data=data, headers=headers, method=method)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    body = response.read()
                    declared = response.headers.get("Content-Length")
                    if declared is not None and len(body) != int(declared):
                        # A truncated read that urllib surfaced as a short
                        # body rather than an exception: retryable.
                        last_reason = (
                            f"truncated response for {path} "
                            f"({len(body)} of {declared} bytes)"
                        )
                        _attempt_failed(attempt, last_reason)
                        continue
                    self._note_up()
                    return response.status, body, _strip_etag(response.headers.get("ETag"))
            except urllib.error.HTTPError as exc:
                body = exc.read()
                if exc.code == 304:
                    # Revalidated: our copy is current; no bytes travelled.
                    self._note_up()
                    return 304, b"", _strip_etag(exc.headers.get("ETag"))
                if exc.code == 404:
                    self._note_up()
                    return 404, body, None
                if exc.code in _TRANSIENT_STATUSES:
                    last_reason = f"HTTP {exc.code} for {path}"
                    _attempt_failed(attempt, last_reason)
                    continue
                self._note_up()  # the hub answered; it just said no
                raise _HTTPStatusError(exc.code, body) from exc
            except (urllib.error.URLError, http.client.HTTPException, OSError, TimeoutError) as exc:
                # URLError wraps refused/reset connections; HTTPException
                # covers torn responses (IncompleteRead on a truncated body,
                # RemoteDisconnected/BadStatusLine on a dropped connection).
                reason = getattr(exc, "reason", None)
                last_reason = f"{reason or exc!r} for {path}"
                _attempt_failed(attempt, last_reason)
                continue
        elapsed = time.monotonic() - started
        self._note_down(last_reason)
        _count(
            "repro_remote_unavailable_total",
            "Request retry loops exhausted against store services.",
        )
        _LOG.warning(
            "request failed after retries %s",
            kv(
                url=self.url,
                method=method,
                path=path,
                attempts=attempts,
                elapsed=round(elapsed, 4),
                reason=last_reason,
            ),
        )
        raise StoreUnavailableError(self.url, last_reason, attempts=attempts, elapsed=elapsed)

    def _note_up(self) -> None:
        if self._down_until or self._warned_down:
            self._down_until = 0.0
            self._warned_down = False

    def _note_down(self, reason: str) -> None:
        self._down_until = time.monotonic() + _DOWN_COOLDOWN
        self._down_reason = reason

    def _degraded(self, exc: Exception) -> bool:
        """Whether to swallow an outage on a read path (warn once per outage)."""
        if not self.degrade:
            return False
        _count(
            "repro_remote_degraded_reads_total",
            "Reads served from the local cache because the store service was unreachable.",
        )
        if not self._warned_down:
            self._warned_down = True
            _LOG.warning(
                "store unreachable, degrading to the local cache %s",
                kv(url=self.url, error=str(exc)),
            )
            warnings.warn(
                f"store service unreachable, degrading to the local cache: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
        else:
            _LOG.debug("degraded read %s", kv(url=self.url, error=str(exc)))
        return True

    def _get(self, path: str, *, query: Optional[Dict[str, str]] = None) -> Optional[bytes]:
        """GET a service path; None on 404, StoreError on anything else."""
        from ..artifacts import StoreError

        try:
            status, body, _ = self._request("GET", path, query=query)
        except _HTTPStatusError as exc:
            raise StoreError(
                f"store service at {self.url} returned HTTP {exc.code} for {path}"
            ) from exc
        return None if status == 404 else body

    def _get_conditional(
        self, path: str, *, query: Optional[Dict[str, str]] = None
    ) -> Optional[bytes]:
        """GET with ``If-None-Match`` revalidation against the last response.

        Listing and journal bodies change as sweeps run, so they cannot be
        cached by content address the way objects are — but they change
        *rarely* relative to how often dashboards poll them.  Remembering
        the last ``(ETag, body)`` per URL turns every unchanged poll into a
        ``304`` round-trip with an empty body.  Falls back to a plain GET
        against servers that send no ETag.
        """
        from ..artifacts import StoreError

        memo_key = path if not query else path + "?" + urllib.parse.urlencode(sorted(query.items()))
        with self._lock:
            memo = self._conditional_memo.get(memo_key)
        try:
            status, body, etag = self._request(
                "GET", path, query=query, etag=memo[0] if memo else None
            )
        except _HTTPStatusError as exc:
            raise StoreError(
                f"store service at {self.url} returned HTTP {exc.code} for {path}"
            ) from exc
        if status == 304 and memo is not None:
            return memo[1]
        if status == 404:
            return None
        if etag is not None:
            with self._lock:
                if len(self._conditional_memo) >= _CONDITIONAL_MEMO_CAP:
                    self._conditional_memo.clear()
                self._conditional_memo[memo_key] = (etag, body)
        return body

    def post_json(
        self,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        idempotent: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """POST a JSON document; returns the parsed JSON reply (None on 404).

        A 409 raises :class:`~repro.store.StoreConflictError` with the
        server's explanation; other error statuses raise
        :class:`~repro.store.StoreError`.  Only mark a POST ``idempotent``
        when re-sending it after an ambiguous failure is safe (heartbeats,
        completes) — lease grants are not, and retry at the worker-loop
        level instead.
        """
        from ..artifacts import StoreConflictError, StoreError

        data = json.dumps(payload or {}).encode("utf-8")
        try:
            status, body, _ = self._request(
                "POST", path, data=data, idempotent=idempotent, content_type="application/json"
            )
        except _HTTPStatusError as exc:
            if exc.code == 409:
                raise StoreConflictError(exc.detail()) from exc
            raise StoreError(
                f"store service at {self.url} rejected POST {path}: {exc.detail()}"
            ) from exc
        if status == 404:
            return None
        return json.loads(body) if body else {}

    def healthz(self) -> Dict[str, Any]:
        """The service's ``/healthz`` document (raises when down — never
        degrades: health probes exist to detect outages, not mask them)."""
        from ..artifacts import StoreError

        payload = self._get("/healthz")
        if payload is None:
            raise StoreError(f"store service at {self.url} has no /healthz endpoint")
        return json.loads(payload)

    def remote_entries(
        self, *, prefix: Optional[str] = None, proto: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """The server-side ``ls`` rows (optionally filtered), without caching."""
        from ..artifacts import StoreUnavailableError

        query = {}
        if prefix:
            query["prefix"] = prefix
        if proto:
            query["proto"] = proto
        try:
            payload = self._get_conditional("/ls", query=query or None)
        except StoreUnavailableError as exc:
            if self._degraded(exc):
                return []
            raise
        if payload is None:  # pragma: no cover - /ls always exists
            return []
        return json.loads(payload).get("entries", [])

    # ------------------------------------------------------------------
    # objects (read-through)
    # ------------------------------------------------------------------
    def _fetch(self, key: str) -> Tuple[Optional[bytes], Optional[bytes]]:
        """``(npz, sidecar)`` of one ``GET /cells/<key>/object``, committed to
        the cache; ``(None, None)`` on a miss (or a degraded outage)."""
        from ..artifacts import StoreCorruptionError, StoreUnavailableError

        try:
            frame = self._get(f"/cells/{key}/object")
        except StoreUnavailableError as exc:
            if self._degraded(exc):
                return None, None  # a cold key degrades to a plain miss
            raise
        if frame is None:
            return None, None
        # Verify before the cache commit: a truncated or corrupted transfer
        # must fail loudly here, never become a cached "valid" object.
        try:
            npz_bytes, sidecar_bytes = decode_object_frame(frame)
            check_payload(parse_sidecar(sidecar_bytes), npz_bytes)
        except ValueError as exc:
            raise StoreCorruptionError(
                f"object {key} fetched from {self.url} failed its integrity check: {exc}"
            ) from exc
        self.cache.write_object(key, npz_bytes, sidecar_bytes)
        return npz_bytes, sidecar_bytes

    def read_sidecar_bytes(self, key: str) -> Optional[bytes]:
        key = check_key(key)
        cached = self.cache.read_sidecar_bytes(key)
        return cached if cached is not None else self._fetch(key)[1]

    def read_npz_bytes(self, key: str) -> Optional[bytes]:
        key = check_key(key)
        cached = self.cache.read_npz_bytes(key)
        return cached if cached is not None else self._fetch(key)[0]

    def publish_object(self, key: str, npz_bytes: bytes, sidecar_bytes: bytes) -> None:
        """Push one object to the hub through the authenticated write path.

        The body is the explicit-length wire frame, so truncation is caught
        structurally server-side before the SHA-256 re-verification even
        runs.  Publishing is idempotent — the server accepts a bit-identical
        duplicate silently and answers 409 for a conflicting one, which
        surfaces here as :class:`~repro.store.StoreConflictError`.
        """
        from ..artifacts import StoreConflictError, StoreError

        key = check_key(key)
        frame = encode_object_frame(npz_bytes, sidecar_bytes)
        try:
            with span("store.publish", key=key, bytes=len(frame)):
                self._request(
                    "PUT",
                    f"/cells/{key}",
                    data=frame,
                    idempotent=True,  # content-addressed: replaying a PUT is safe
                    content_type="application/octet-stream",
                )
        except _HTTPStatusError as exc:
            if exc.code == 409:
                raise StoreConflictError(exc.detail()) from exc
            raise StoreError(
                f"store service at {self.url} rejected publish of {key}: {exc.detail()}"
            ) from exc

    def write_object(self, key: str, npz_bytes: bytes, sidecar_bytes: bytes) -> Path:
        # With publish enabled the hub gets the object first (fail loudly
        # before the local commit, so a cell never looks done locally while
        # lost to the fleet); either way the cache keeps a local copy.
        if self.publish:
            self.publish_object(key, npz_bytes, sidecar_bytes)
        return self.cache.write_object(key, npz_bytes, sidecar_bytes)

    def delete_object(self, key: str) -> None:
        # Deletions manage the local cache only (gc of the served root is
        # the server operator's job).
        self.cache.delete_object(key)

    def list_keys(self) -> List[str]:
        remote = {entry["key"] for entry in self.remote_entries() if "key" in entry}
        return sorted(remote.union(self.cache.list_keys()))

    def object_size(self, key: str) -> Optional[int]:
        return self.cache.object_size(key)

    def mark_read(self, key: str) -> None:
        self.cache.mark_read(key)

    # ------------------------------------------------------------------
    # sweep journals (written locally, readable from the service)
    # ------------------------------------------------------------------
    def append_sweep_line(self, sweep_id: str, line: str) -> None:
        self.cache.append_sweep_line(sweep_id, line)

    def read_sweep_text(self, sweep_id: str) -> Optional[str]:
        """Server journal (if any) followed by the locally cached one.

        A sweep can have history on both sides — journaled on the server,
        then resumed by this client.  Concatenating server-first keeps the
        full history: gc pins become the union, and the most recent run is
        the local one.  Journal readers tolerate arbitrary event
        interleaving by construction.
        """
        from ..artifacts import StoreUnavailableError

        sweep_id = check_sweep_id(sweep_id)
        try:
            payload = self._get_conditional(f"/sweeps/{sweep_id}")
        except StoreUnavailableError as exc:
            if self._degraded(exc):
                payload = None
            else:
                raise
        remote_text = None if payload is None else payload.decode("utf-8")
        cached = self.cache.read_sweep_text(sweep_id)
        if remote_text is None:
            return cached
        if cached is None:
            return remote_text
        return remote_text + cached

    def list_sweeps(self) -> List[str]:
        from ..artifacts import StoreUnavailableError

        known = set(self.cache.list_sweeps())
        try:
            payload = self._get("/sweeps")
        except StoreUnavailableError as exc:
            if self._degraded(exc):
                payload = None
            else:
                raise
        if payload is not None:
            known.update(json.loads(payload).get("sweeps", []))
        return sorted(known)
