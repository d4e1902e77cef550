"""The storage-backend interface behind :class:`~repro.store.ResultStore`.

A backend is the *transport* of the store: it moves opaque object bytes
(compressed NPZ payloads and their JSON sidecars) and sweep-journal lines
between the store facade and wherever they live — a local directory
(:class:`~repro.store.backends.local.LocalBackend`) or a remote HTTP store
service fronted by a local read-through cache
(:class:`~repro.store.backends.remote.RemoteBackend`).

Every backend upholds the two store-wide contracts:

* **atomic commit** — :meth:`StoreBackend.write_object` lands the NPZ
  payload before the sidecar, each with an atomic rename, so the sidecar's
  existence is the commit marker and no reader ever observes a half-written
  object;
* **fail-loud integrity** — bytes are returned verbatim, never repaired or
  re-serialized, so the SHA-256 check in
  :meth:`~repro.store.ResultStore.get_trial_set` always runs against exactly
  the bytes that were persisted, end to end across any transport.

The checksum rule itself — a sidecar parses to a JSON object whose
``npz_sha256`` is the SHA-256 of the payload — is stated once here, beside
the object wire frame, as :func:`parse_sidecar` and :func:`check_payload`:
the store's verified read, the remote backend's cache fill and the
service's publish route all apply it.

Backends are cheap, stateless-ish value objects: only configuration (paths,
URLs) crosses process boundaries, so they pickle cleanly into the
process-parallel cell scheduler's workers.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "KEY_HEX_LENGTH",
    "OBJECT_FRAME_MAGIC",
    "StoreBackend",
    "check_key",
    "check_payload",
    "check_sweep_id",
    "decode_object_frame",
    "encode_object_frame",
    "parse_sidecar",
    "payload_sha256",
]

#: Length of a cell key: a SHA-256 hex digest.
KEY_HEX_LENGTH = 64

#: Magic prefix of the object wire frame (``PUT /cells/<key>`` and
#: ``GET /cells/<key>/object`` bodies).
OBJECT_FRAME_MAGIC = b"repro-object-1\n"

_FRAME_LENGTHS = struct.Struct(">QQ")

#: Sweep ids are 16 hex digits (:func:`repro.store.journal.sweep_id`); the
#: accepted charset has no ``.`` or ``/``, so an id never leaves ``sweeps/``.
_SWEEP_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}")


def encode_object_frame(npz_bytes: bytes, sidecar_bytes: bytes) -> bytes:
    """Frame one store object for the wire: magic, lengths, sidecar, payload.

    The frame is ``magic || len(sidecar) || len(npz) || sidecar || npz`` with
    both lengths as big-endian unsigned 64-bit integers.  Carrying both
    declared lengths means a truncated transfer is detected *structurally*
    (the body is shorter than the frame promises) before the SHA-256 check
    even runs — two independent tripwires between a flaky network and a
    committed object.
    """
    header = OBJECT_FRAME_MAGIC + _FRAME_LENGTHS.pack(len(sidecar_bytes), len(npz_bytes))
    return header + sidecar_bytes + npz_bytes


def decode_object_frame(body: bytes) -> Tuple[bytes, bytes]:
    """Invert :func:`encode_object_frame`; raises ``ValueError`` when malformed.

    Rejects a wrong magic, a body shorter *or longer* than the declared
    lengths — any of which means the transfer was corrupted or truncated and
    must not reach the store.  Returns ``(npz_bytes, sidecar_bytes)``.
    """
    if not body.startswith(OBJECT_FRAME_MAGIC):
        raise ValueError("object frame does not start with the publish magic")
    offset = len(OBJECT_FRAME_MAGIC)
    if len(body) < offset + _FRAME_LENGTHS.size:
        raise ValueError("object frame truncated inside its length header")
    sidecar_length, npz_length = _FRAME_LENGTHS.unpack_from(body, offset)
    offset += _FRAME_LENGTHS.size
    expected = offset + sidecar_length + npz_length
    if len(body) != expected:
        raise ValueError(
            f"object frame length mismatch: body has {len(body)} bytes, "
            f"frame declares {expected}"
        )
    sidecar_bytes = body[offset : offset + sidecar_length]
    npz_bytes = body[offset + sidecar_length :]
    return npz_bytes, sidecar_bytes


def payload_sha256(payload: bytes) -> str:
    """The checksum a sidecar records for its payload (``npz_sha256``)."""
    return hashlib.sha256(payload).hexdigest()


def parse_sidecar(sidecar_bytes: bytes) -> Dict[str, Any]:
    """Parse sidecar bytes; ``ValueError`` unless they hold a UTF-8 JSON object."""
    try:
        sidecar = json.loads(sidecar_bytes.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"unparsable sidecar ({exc})") from exc
    if not isinstance(sidecar, dict):
        raise ValueError("unparsable sidecar (not a JSON object)")
    return sidecar


def check_payload(sidecar: Dict[str, Any], payload: bytes) -> None:
    """``ValueError`` unless ``payload`` hashes to the sidecar's ``npz_sha256``."""
    if payload_sha256(payload) != sidecar.get("npz_sha256"):
        raise ValueError("payload bytes do not match the sidecar checksum")


def check_key(key: str) -> str:
    """Validate a cell key (64 lowercase hex digits); returns it unchanged.

    Raises :class:`~repro.store.StoreError` otherwise — malformed keys must
    be rejected before they reach a filesystem path or a URL.
    """
    from ..artifacts import StoreError

    key = str(key)
    if len(key) != KEY_HEX_LENGTH or any(c not in "0123456789abcdef" for c in key):
        raise StoreError(f"malformed cell key {key!r}")
    return key


def check_sweep_id(sweep_id: str) -> str:
    """Validate a sweep id (1-64 of ``[A-Za-z0-9_-]``); returns it unchanged.

    Raises :class:`~repro.store.StoreError` otherwise, exactly like
    :func:`check_key`: a journal path is built from the id, so an id such as
    ``../x`` must never reach the filesystem.
    """
    from ..artifacts import StoreError

    sweep_id = str(sweep_id)
    if not _SWEEP_ID_RE.fullmatch(sweep_id):
        raise StoreError(f"malformed sweep id {sweep_id!r}")
    return sweep_id


class StoreBackend(ABC):
    """Abstract transport for store objects, sidecars and sweep journals.

    The facade (:class:`~repro.store.ResultStore`) owns serialization,
    checksums and policy (gc, export, entries); backends only move bytes.
    """

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def location(self) -> object:
        """Where this backend stores/serves from (a ``Path`` or a URL string)."""

    @property
    @abstractmethod
    def local(self) -> "StoreBackend":
        """The local on-disk surface of this backend.

        For a local backend this is the backend itself; for a remote backend
        it is the read-through cache.  Path-oriented operations — gc, journal
        files, ``object_paths`` — act on this surface.
        """

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------
    @abstractmethod
    def read_sidecar_bytes(self, key: str) -> Optional[bytes]:
        """Raw sidecar bytes of a committed object, or None if absent."""

    @abstractmethod
    def read_npz_bytes(self, key: str) -> Optional[bytes]:
        """Raw NPZ payload bytes of an object, or None if absent."""

    @abstractmethod
    def write_object(self, key: str, npz_bytes: bytes, sidecar_bytes: bytes) -> Path:
        """Persist one object atomically (NPZ first, sidecar as commit marker).

        Returns the local path of the committed sidecar.
        """

    @abstractmethod
    def delete_object(self, key: str) -> None:
        """Remove an object (sidecar first, so it uncommits immediately)."""

    @abstractmethod
    def list_keys(self) -> List[str]:
        """All committed object keys, sorted."""

    @abstractmethod
    def object_size(self, key: str) -> Optional[int]:
        """Size in bytes of the object's NPZ payload, or None if unknown."""

    @abstractmethod
    def mark_read(self, key: str) -> None:
        """Record a successful read of ``key`` (feeds the gc LRU ordering)."""

    # ------------------------------------------------------------------
    # sweep journals
    # ------------------------------------------------------------------
    @abstractmethod
    def append_sweep_line(self, sweep_id: str, line: str) -> None:
        """Append one JSONL line to a sweep journal (single write call)."""

    @abstractmethod
    def read_sweep_text(self, sweep_id: str) -> Optional[str]:
        """Full text of a sweep journal, or None if it does not exist."""

    @abstractmethod
    def list_sweeps(self) -> List[str]:
        """All sweep ids with a journal, sorted."""

    # ------------------------------------------------------------------
    # conveniences shared by all backends
    # ------------------------------------------------------------------
    def object_paths(self, key: str) -> Tuple[Path, Path]:
        """``(npz_path, sidecar_path)`` on the backend's local surface."""
        return self.local.object_paths(key)

    def __contains__(self, key: str) -> bool:
        return self.read_sidecar_bytes(key) is not None
