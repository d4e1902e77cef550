"""Content-addressed artifact store for cached :class:`TrialSet` records.

:class:`ResultStore` is the facade: it owns serialization (compressed NPZ
per-trial arrays + JSON sidecar), the SHA-256 integrity contract and policy
(listing, gc, export), while the actual byte transport is a pluggable
:class:`~repro.store.backends.StoreBackend`:

* :class:`~repro.store.backends.LocalBackend` — the sharded on-disk layout
  (``objects/<k0k1>/<key>.npz`` + ``.json`` sidecar, ``sweeps/*.jsonl``
  journals) described in :mod:`repro.store.backends.local`;
* :class:`~repro.store.backends.RemoteBackend` — an HTTP client for the
  read-only ``repro store serve`` service, with a local read-through cache
  so every object is fetched at most once.

``ResultStore(root)`` accepts either a filesystem path or an
``http(s)://host:port`` service URL — the same two forms the
``REPRO_STORE`` environment variable accepts.

The NPZ member holds the numeric per-trial data (broadcast times,
completion flags, message counts, ragged per-round histories in
flat-plus-lengths form); the JSON sidecar holds everything else (protocol,
graph name, backend, per-trial metadata and edge-traversal dicts) plus the
SHA-256 and byte size of the NPZ payload.

Writes are atomic and ordered NPZ-before-sidecar, so the sidecar's
existence is the commit marker: a reader never observes a half-written
object.  Reads verify the sidecar's checksum against the NPZ bytes and
raise :class:`StoreCorruptionError` on any mismatch — a corrupt cache must
fail loudly, never silently feed wrong numbers into a figure.  Both
contracts hold across every backend: the service streams the checksummed
bytes verbatim, and the remote backend re-verifies before committing
anything to its cache.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.results import TrialSet
from .backends import StoreBackend, resolve_backend
from .backends.base import check_payload, parse_sidecar, payload_sha256
from .journal import journal_events
from .keys import STORE_FORMAT_VERSION, canonical_json, cell_key

__all__ = [
    "STORE_ENV_VAR",
    "ResultStore",
    "StoreConflictError",
    "StoreCorruptionError",
    "StoreError",
    "StoreUnavailableError",
    "cached_document",
    "resolve_store",
]

#: Environment variable that enables the store by default when set to a
#: path or an ``http(s)://`` store-service URL.
STORE_ENV_VAR = "REPRO_STORE"

#: NPZ members holding one value per trial; their leading dimensions must
#: agree with the sidecar's per-trial records.
_PER_TRIAL_MEMBERS = (
    "broadcast_time",
    "completed",
    "rounds_executed",
    "messages_sent",
    "num_agents",
    "source",
    "num_edges",
)


class StoreError(RuntimeError):
    """Base class for result-store failures."""


class StoreCorruptionError(StoreError):
    """An on-disk artifact failed its integrity check."""


class StoreConflictError(StoreError):
    """A publish clashed with an existing object holding *different* bytes.

    Cells are content-addressed and pure functions of their spec, so two
    honest computations of one key are bit-identical and publishes are
    idempotent.  A conflicting payload therefore means something is wrong —
    nondeterminism, a corrupted worker, mismatched code versions — and must
    fail loudly rather than silently keep either side.
    """


class StoreUnavailableError(StoreError):
    """The store service could not be reached (after the configured retries).

    Carries the attempted URL and a retry summary so the operator sees
    *where* the client was pointed and *how hard* it tried, instead of a raw
    ``URLError`` traceback from deep inside ``urllib``.
    """

    def __init__(
        self,
        url: str,
        reason: str,
        *,
        attempts: int = 1,
        elapsed: float = 0.0,
    ) -> None:
        self.url = url
        self.reason = reason
        self.attempts = attempts
        self.elapsed = elapsed
        plural = "attempt" if attempts == 1 else "attempts"
        super().__init__(
            f"store service at {url} is unreachable after {attempts} {plural} "
            f"over {elapsed:.1f}s: {reason}"
        )


def _flatten_histories(histories: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Encode a ragged list of int lists as (flat values, per-trial lengths)."""
    lengths = np.asarray([len(h) for h in histories], dtype=np.int64)
    if int(lengths.sum()) == 0:
        return np.empty(0, dtype=np.int64), lengths
    flat = np.concatenate([np.asarray(h, dtype=np.int64) for h in histories if len(h)])
    return flat, lengths


def _unflatten_histories(flat: np.ndarray, lengths: np.ndarray) -> List[List[int]]:
    """Invert :func:`_flatten_histories`."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return [[int(v) for v in flat[offsets[i] : offsets[i + 1]]] for i in range(lengths.size)]


class ResultStore:
    """A content-addressed store of trial-set artifacts behind a backend.

    ``root`` may be a directory path (local store), an ``http(s)://`` URL of
    a ``repro store serve`` service (remote store with a local read-through
    cache at ``cache`` / ``$REPRO_STORE_CACHE`` / a per-URL default), or an
    already-constructed :class:`~repro.store.backends.StoreBackend`.

    The store is safe for concurrent writers (the process-parallel cell
    scheduler persists from worker processes): writes are atomic renames and
    two writers racing on the same key write identical bytes by
    construction.  Instances are cheap and picklable — only the backend
    configuration (paths, URL) crosses process boundaries.
    """

    def __init__(
        self,
        root: Union[str, Path, StoreBackend, None] = None,
        *,
        backend: Optional[StoreBackend] = None,
        cache: Union[str, Path, None] = None,
    ) -> None:
        if backend is None:
            if root is None:
                raise StoreError("ResultStore needs a root path, URL or backend")
            backend = resolve_backend(root, cache=cache)
        self.backend = backend
        #: The store's designator: a ``Path`` for local stores, the service
        #: URL string for remote ones.
        self.root = backend.location

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"

    # ------------------------------------------------------------------
    # paths (the backend's local surface: the store root, or the
    # read-through cache of a remote store)
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        """Directory holding the content-addressed objects."""
        return self.backend.local.objects_dir

    @property
    def sweeps_dir(self) -> Path:
        """Directory holding the per-sweep journals."""
        return self.backend.local.sweeps_dir

    def object_paths(self, key: str) -> Tuple[Path, Path]:
        """``(npz_path, sidecar_path)`` of a key (whether or not it exists)."""
        return self.backend.object_paths(key)

    def __contains__(self, key: str) -> bool:
        return self.backend.read_sidecar_bytes(key) is not None

    # ------------------------------------------------------------------
    # put / get
    # ------------------------------------------------------------------
    def put_trial_set(
        self,
        key: str,
        trial_set: TrialSet,
        *,
        cell: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist a trial set under ``key``; returns the sidecar path.

        ``cell`` is the key payload (see
        :func:`repro.store.keys.trial_cell_payload`); storing it alongside
        the data makes every object self-describing (``repro store info``).
        Re-putting an existing key simply overwrites it with identical
        content — puts are idempotent.  On a remote store the write lands in
        the local read-through cache (the service is read-only).
        """
        payload = trial_set.to_dict()
        results = payload.pop("results")

        vertex_flat, vertex_lengths = _flatten_histories(
            [r["informed_vertex_history"] for r in results]
        )
        agent_flat, agent_lengths = _flatten_histories(
            [r["informed_agent_history"] for r in results]
        )
        arrays = {
            "broadcast_time": np.asarray(
                [-1 if r["broadcast_time"] is None else r["broadcast_time"] for r in results],
                dtype=np.int64,
            ),
            "completed": np.asarray([r["completed"] for r in results], dtype=bool),
            "rounds_executed": np.asarray([r["rounds_executed"] for r in results], dtype=np.int64),
            "messages_sent": np.asarray([r["messages_sent"] for r in results], dtype=np.int64),
            "num_agents": np.asarray([r["num_agents"] for r in results], dtype=np.int64),
            "source": np.asarray([r["source"] for r in results], dtype=np.int64),
            "num_edges": np.asarray([r["num_edges"] for r in results], dtype=np.int64),
            "vertex_history_flat": vertex_flat,
            "vertex_history_lengths": vertex_lengths,
            "agent_history_flat": agent_flat,
            "agent_history_lengths": agent_lengths,
        }
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        npz_bytes = buffer.getvalue()

        rest = [
            {
                "protocol": r["protocol"],
                "graph_name": r["graph_name"],
                "num_vertices": r["num_vertices"],
                "edge_traversals": r["edge_traversals"],
                "metadata": r["metadata"],
            }
            for r in results
        ]
        # trial_set: protocol / graph_name / num_vertices / backend
        return self._commit(key, npz_bytes, cell, trial_set=payload, results=rest)

    def _commit(
        self, key: str, payload: bytes, cell: Optional[Dict[str, Any]], **fields: Any
    ) -> Path:
        """Write ``payload`` and its sidecar: the shared fields plus ``fields``."""
        sidecar = {
            "format": STORE_FORMAT_VERSION,
            "key": key,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "npz_sha256": payload_sha256(payload),
            "npz_bytes": len(payload),
            "cell": cell,
            **fields,
        }
        return self.backend.write_object(
            key, payload, json.dumps(sidecar, sort_keys=True).encode("utf-8")
        )

    def read_sidecar(self, key: str) -> Optional[Dict[str, Any]]:
        """Parsed sidecar of a key, or None if the object is absent."""
        raw = self.backend.read_sidecar_bytes(key)
        if raw is None:
            return None
        try:
            return parse_sidecar(raw)
        except ValueError as exc:
            raise StoreCorruptionError(f"store object {key} has an {exc}") from exc

    def _verified_read(self, key: str, kind: str) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """``(sidecar, payload)`` of a ``kind`` object, checksum-verified.

        None when the object is absent.  A stale format or a lost or
        mismatching payload raises :class:`StoreCorruptionError`; an object
        of another kind raises :class:`StoreError`.
        """
        sidecar = self.read_sidecar(key)
        if sidecar is None:
            return None
        if sidecar.get("format") != STORE_FORMAT_VERSION:
            raise StoreCorruptionError(
                f"store object {key} has format {sidecar.get('format')!r}; "
                f"this build reads format {STORE_FORMAT_VERSION} "
                "(run 'repro store gc --all' to drop stale objects)"
            )
        stored_kind = sidecar.get("kind", "trial-set")
        if stored_kind != kind:
            reader = "get_trial_set" if stored_kind == "trial-set" else "get_document"
            raise StoreError(
                f"store object {key} holds a {stored_kind!r} object, not a {kind!r} one "
                f"(read it with {reader})"
            )
        payload = self.backend.read_npz_bytes(key)
        if payload is None:
            if self.backend.read_sidecar_bytes(key) is None:
                # A concurrent gc deleted the whole object between our
                # sidecar read and the payload read: that is a plain cache
                # miss, not corruption.
                return None
            raise StoreCorruptionError(f"store object {key} lost its payload")
        try:
            check_payload(sidecar, payload)
        except ValueError as exc:
            raise StoreCorruptionError(
                f"store object {key} failed its integrity check: {exc}"
            ) from exc
        return sidecar, payload

    def get_trial_set(self, key: str) -> Optional[TrialSet]:
        """Load the trial set stored under ``key`` (None if absent).

        The NPZ bytes are checked against the sidecar's SHA-256 before being
        parsed; any mismatch, missing member or trial-count inconsistency
        raises :class:`StoreCorruptionError`.
        """
        read = self._verified_read(key, "trial-set")
        if read is None:
            return None
        sidecar, npz_bytes = read
        try:
            with np.load(io.BytesIO(npz_bytes), allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
            vertex_histories = _unflatten_histories(
                arrays["vertex_history_flat"], arrays["vertex_history_lengths"]
            )
            agent_histories = _unflatten_histories(
                arrays["agent_history_flat"], arrays["agent_history_lengths"]
            )
            rest = sidecar["results"]
            trials = len(rest)
            if any(arrays[name].shape[0] != trials for name in _PER_TRIAL_MEMBERS):
                raise KeyError("per-trial array lengths disagree with sidecar")
            results = []
            for t in range(trials):
                done = bool(arrays["completed"][t])
                results.append(
                    {
                        "protocol": rest[t]["protocol"],
                        "graph_name": rest[t]["graph_name"],
                        "num_vertices": rest[t]["num_vertices"],
                        "num_edges": int(arrays["num_edges"][t]),
                        "source": int(arrays["source"][t]),
                        "broadcast_time": int(arrays["broadcast_time"][t]) if done else None,
                        "rounds_executed": int(arrays["rounds_executed"][t]),
                        "completed": done,
                        "num_agents": int(arrays["num_agents"][t]),
                        "informed_vertex_history": vertex_histories[t],
                        "informed_agent_history": agent_histories[t],
                        "messages_sent": int(arrays["messages_sent"][t]),
                        "edge_traversals": rest[t]["edge_traversals"],
                        "metadata": rest[t]["metadata"],
                    }
                )
            payload = dict(sidecar["trial_set"])
            payload["results"] = results
            loaded = TrialSet.from_dict(payload)
        except StoreCorruptionError:
            raise
        except (KeyError, ValueError, TypeError, OSError) as exc:
            raise StoreCorruptionError(f"store object {key} could not be decoded: {exc}") from exc
        self.backend.mark_read(key)  # feeds the gc --max-bytes LRU ordering
        return loaded

    # ------------------------------------------------------------------
    # document cells (non-trial-set results cached under cell keys)
    # ------------------------------------------------------------------
    def put_document(
        self,
        key: str,
        document: Dict[str, Any],
        *,
        kind: str,
        cell: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist an arbitrary JSON document under ``key``.

        Documents reuse the object slot normally holding NPZ bytes (the
        payload is canonical JSON instead), so they inherit the whole
        transport stack unchanged: atomic payload-before-sidecar commits,
        SHA-256 end-to-end verification, remote read-through caching and gc.
        ``kind`` tags what the document is (e.g. ``"coupling"``), letting
        :meth:`get_document` and :meth:`get_trial_set` reject cross-kind
        reads loudly instead of mis-decoding bytes.
        """
        return self._commit(key, canonical_json(document).encode("utf-8"), cell, kind=kind)

    def get_document(self, key: str, *, kind: str) -> Optional[Dict[str, Any]]:
        """Load the ``kind``-tagged document under ``key`` (None if absent).

        Verifies the payload bytes against the sidecar checksum exactly like
        :meth:`get_trial_set`; a kind mismatch or undecodable payload raises
        :class:`StoreError` / :class:`StoreCorruptionError`.
        """
        read = self._verified_read(key, kind)
        if read is None:
            return None
        try:
            document = json.loads(read[1].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(f"store object {key} could not be decoded: {exc}") from exc
        self.backend.mark_read(key)
        return document

    # ------------------------------------------------------------------
    # query / management
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """All committed object keys (sidecar present), in sorted order."""
        return iter(self.backend.list_keys())

    def _entry_row(self, key: str, sidecar: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """One ``ls`` row from a parsed sidecar (None → corrupt placeholder)."""
        size = self.backend.object_size(key)
        row: Dict[str, Any] = {
            "key": key,
            "protocol": "<corrupt sidecar>",
            "graph": None,
            "n": None,
            "trials": 0,
            "backend": None,
            "max_rounds": None,
            "bytes": size or 0,
            "created_at": None,
        }
        if sidecar is None:
            return row
        cell = sidecar.get("cell") or {}
        row["bytes"] = (sidecar.get("npz_bytes") if size is None else size) or 0
        row["created_at"] = sidecar.get("created_at")
        if sidecar.get("kind", "trial-set") != "trial-set":
            params = cell.get("params") or {}
            row["protocol"] = f"<{sidecar['kind']} document>"
            row["n"] = params.get("size") or (params.get("sizes") or [None])[-1]
            return row
        trial_set = sidecar.get("trial_set", {})
        row.update(
            protocol=trial_set.get("protocol"),
            graph=trial_set.get("graph_name"),
            n=trial_set.get("num_vertices"),
            trials=len(sidecar.get("results", [])),
            backend=trial_set.get("backend"),
            max_rounds=cell.get("max_rounds"),
        )
        return row

    def entries(self) -> List[Dict[str, Any]]:
        """One summary row per object — the ``repro store ls`` view.

        An object with an unreadable sidecar is reported as a ``"corrupt"``
        row rather than raised: the inspection surface must stay usable
        precisely when the store has a damaged object to show.  Against a
        remote store the server-side rows come from one ``/ls`` call and are
        merged with locally cached/computed objects the server lacks.
        """
        remote_rows: Dict[str, Dict[str, Any]] = {}
        if hasattr(self.backend, "remote_entries"):
            rows_from_server = self.backend.remote_entries()
            remote_rows = {row["key"]: row for row in rows_from_server if "key" in row}
            # One /ls call covers the server side; merge the cache's keys
            # locally rather than paying backend.list_keys()'s second /ls.
            keys = sorted(set(remote_rows).union(self.backend.local.list_keys()))
        else:
            keys = self.backend.list_keys()
        rows = []
        for key in keys:
            raw = self.backend.local.read_sidecar_bytes(key)
            if raw is None:
                if key in remote_rows:
                    rows.append(remote_rows[key])
                    continue
                try:  # remote-only key the /ls races missed
                    sidecar = self.read_sidecar(key)
                except StoreCorruptionError:
                    sidecar = None
                if sidecar is None:
                    continue  # pragma: no cover - raced deletion
            else:
                try:
                    sidecar = parse_sidecar(raw)
                except ValueError:
                    sidecar = None  # corrupt: reported, not raised
            rows.append(self._entry_row(key, sidecar))
        return rows

    def referenced_keys(self) -> set:
        """Keys referenced by any sweep journal under ``sweeps/``."""
        local = self.backend.local
        return {
            event["key"]
            for sweep in local.list_sweeps()
            for event in journal_events(local.read_sweep_text(sweep))
            if isinstance(event.get("key"), str)
        }

    def gc(
        self,
        *,
        keep_referenced: bool = True,
        older_than_days: float = 0.0,
        dry_run: bool = False,
        max_bytes: Optional[int] = None,
    ) -> List[str]:
        """Delete objects from the local surface; returns the keys removed.

        Two modes share the referenced-keys pin (an object referenced by any
        sweep journal survives unless ``keep_referenced=False``):

        * **unreferenced sweep** (``max_bytes=None``, the default): every
          unreferenced object older than ``older_than_days`` goes — with
          ``keep_referenced=False`` and the default cutoff that empties the
          store.
        * **LRU budget** (``max_bytes`` set): objects are evicted least
          recently *read* first (reads bump the NPZ payload's mtime; the
          sidecar keeps its commit time, so the default mode's age cutoff
          is unaffected) until the objects' total on-disk size fits the
          budget.  ``older_than_days`` is honoured as an age floor: objects
          committed more recently than that are never evicted for the
          budget.  Journal-referenced roots stay pinned, so the store can
          exceed the budget when the pinned (or too-young) set alone does.

        On a remote store this manages the read-through cache; the served
        root is its operator's to gc.  Temp files abandoned by crashed
        writers (and NPZ payloads whose sidecar never landed) are swept in
        both modes, but only once they are over an hour old: a young temp
        file may belong to a live writer about to ``os.replace`` it, and
        unlinking it mid-flight would crash that writer's sweep.
        """
        local = self.backend.local
        referenced = self.referenced_keys() if keep_referenced else set()
        removed: List[str] = []
        if max_bytes is None:
            cutoff = time.time() - older_than_days * 86400.0
            for key in local.list_keys():
                if key in referenced:
                    continue
                _npz_path, sidecar_path = local.object_paths(key)
                try:
                    mtime = sidecar_path.stat().st_mtime
                except FileNotFoundError:  # pragma: no cover - raced deletion
                    continue
                if mtime > cutoff:
                    continue
                removed.append(key)
                if not dry_run:
                    local.delete_object(key)
        else:
            cutoff = time.time() - older_than_days * 86400.0
            candidates = []
            total = 0
            for key in local.list_keys():
                npz_path, sidecar_path = local.object_paths(key)
                try:
                    size = sidecar_path.stat().st_size
                    commit_mtime = sidecar_path.stat().st_mtime
                    read_mtime = commit_mtime
                    if npz_path.exists():
                        size += npz_path.stat().st_size
                        # Reads touch the payload, so its mtime is the
                        # last-read time; the sidecar's is the commit time.
                        read_mtime = max(read_mtime, npz_path.stat().st_mtime)
                except FileNotFoundError:  # pragma: no cover - raced deletion
                    continue
                candidates.append((read_mtime, key, size, commit_mtime))
                total += size
            for _read_mtime, key, size, commit_mtime in sorted(candidates):
                if total <= int(max_bytes):
                    break
                if key in referenced or commit_mtime > cutoff:
                    continue
                removed.append(key)
                total -= size
                if not dry_run:
                    local.delete_object(key)
        if not dry_run and local.objects_dir.is_dir():
            stale_before = time.time() - 3600.0
            # Crashed-writer debris: abandoned temp files, and NPZ payloads
            # whose sidecar (the commit marker) never landed.  Both are
            # swept only once they are over an hour old — a younger file may
            # belong to a live writer between its two writes, and unlinking
            # it mid-flight would crash that writer's sweep.
            stale_candidates = list(local.objects_dir.glob("??/.*.tmp")) + [
                npz
                for npz in local.objects_dir.glob("??/*.npz")
                if not npz.with_suffix(".json").exists()
            ]
            for debris in stale_candidates:
                try:
                    if debris.stat().st_mtime < stale_before:
                        debris.unlink(missing_ok=True)
                except FileNotFoundError:  # pragma: no cover - raced writer
                    pass
        return removed

    def export(self, destination: Union[str, Path], keys: Optional[Sequence[str]] = None) -> int:
        """Copy objects (and journals) into another store root; returns a count.

        With ``keys=None`` the whole store is exported.  The destination can
        then be used as a ``--store`` root directly — e.g. to seed a CI cache,
        a store service's root, or share results with a colleague.  Exporting
        *from* a remote store works too (objects are fetched through the
        read-through cache); the destination must be local.
        """
        destination_store = ResultStore(destination)
        if hasattr(destination_store.backend, "remote_entries"):
            raise StoreError("cannot export into a remote store (the service is read-only)")
        selected = list(keys) if keys is not None else list(self.keys())
        copied = 0
        for key in selected:
            npz_bytes = self.backend.read_npz_bytes(key)
            sidecar_bytes = self.backend.read_sidecar_bytes(key)
            if npz_bytes is None or sidecar_bytes is None:
                raise StoreError(f"cannot export missing key {key}")
            # Atomic data-before-marker, as in put_trial_set: the destination
            # may be a live shared store with concurrent readers, so neither
            # file may ever be observable half-written.
            destination_store.backend.write_object(key, npz_bytes, sidecar_bytes)
            copied += 1
        if keys is None:
            # The backend view (not just the local surface): a remote store
            # exports the *server's* journals too, so the destination keeps
            # the gc pins of the sweeps it now holds.
            for sweep in self.backend.list_sweeps():
                text = self.backend.read_sweep_text(sweep)
                if text is not None:
                    # Replace, don't append: re-exporting into the same
                    # destination must be idempotent, not double every
                    # journal.
                    destination_store.backend.local.write_sweep_text(sweep, text)
        return copied


def resolve_store(store: Any) -> Optional[ResultStore]:
    """Normalize a ``store=`` argument into a :class:`ResultStore` or None.

    ``None`` consults the :data:`REPRO_STORE <STORE_ENV_VAR>` environment
    variable — a non-empty value enables the store there, whether it is a
    directory path or an ``http(s)://`` service URL (how CI runs the whole
    suite store-backed, and how a laptop points at a warm central store);
    ``False`` disables the store unconditionally; a string/path/URL opens a
    store at that root; an existing :class:`ResultStore` passes through.
    """
    if store is None:
        env = os.environ.get(STORE_ENV_VAR, "").strip()
        return ResultStore(env) if env else None
    if store is False:
        return None
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store)


def cached_document(
    store: Any, cell: Dict[str, Any], compute, *, force: bool = False, result_type: Any = None
) -> Tuple[Any, bool]:
    """Read the document ``cell`` addresses from ``store``, or compute and store it.

    ``cell`` is a :func:`~repro.store.keys.document_cell_payload`; the sidecar
    records it, so the hub can check that it hashes to the key.  With
    ``result_type`` the document is ``compute().to_dict()`` and a hit returns
    ``result_type.from_dict(document)``; without, ``compute()`` returns the
    document itself.  Returns ``(result, computed)``, a computed result as
    computed.  ``store`` follows :func:`resolve_store` (none: always
    compute); ``force`` recomputes a cached document.
    """
    store_obj = resolve_store(store)
    if store_obj is None:
        return compute(), True
    kind = cell["document"]
    key = cell_key(cell)
    if not force:
        document = store_obj.get_document(key, kind=kind)
        if document is not None:
            return (document if result_type is None else result_type.from_dict(document)), False
    result = compute()
    document = result if result_type is None else result.to_dict()
    store_obj.put_document(key, document, kind=kind, cell=cell)
    return result, True
