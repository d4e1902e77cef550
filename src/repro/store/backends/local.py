"""Local-directory store backend: the on-disk layout every store bottoms out in.

Layout (everything under one root directory)::

    <root>/
      objects/<k0k1>/<key>.npz    compressed per-trial arrays
      objects/<k0k1>/<key>.json   sidecar: metadata + integrity checksum
      sweeps/<sweep_id>.jsonl     append-only sweep journals

``<key>`` is the 64-hex-digit cell key of :mod:`repro.store.keys`; objects
are sharded by the first two hex digits to keep directory listings sane at
scale.  Writes are atomic (write to a temp file in the same directory, then
``os.replace``) and ordered NPZ-before-sidecar, so the sidecar's existence
is the commit marker: a reader never observes a half-written object, and a
crash mid-write leaves at worst an orphaned temp/NPZ file for ``gc`` to
sweep.  This backend is also the read-through cache behind
:class:`~repro.store.backends.remote.RemoteBackend`, so the served store
and every client cache share one layout — ``repro store ls`` works
identically on either.
"""

from __future__ import annotations

import itertools
import os
import threading
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .base import _SWEEP_ID_RE, KEY_HEX_LENGTH, StoreBackend, check_key, check_sweep_id

__all__ = ["LocalBackend"]

_tmp_counter = itertools.count()


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory temp + replace).

    The temp name is unique per (process, thread, call): two threads of one
    process race on the same key when a shared read-through cache fills from
    concurrent readers, and a pid-only suffix would make them clobber each
    other's temp file mid-replace.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    unique = f"{os.getpid()}.{threading.get_ident()}.{next(_tmp_counter)}"
    tmp = path.parent / f".{path.name}.{unique}.tmp"
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            tmp.unlink()


class LocalBackend(StoreBackend):
    """Store objects in a sharded directory tree under one root.

    Safe for concurrent writers (the process-parallel cell scheduler
    persists from worker processes, and a store service may serve the root
    while a sweep writes into it): every write is an atomic rename, and two
    writers racing on the same key write identical bytes by construction.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"LocalBackend({str(self.root)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LocalBackend) and self.root == other.root

    def __hash__(self) -> int:
        return hash((LocalBackend, self.root))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def location(self) -> Path:
        return self.root

    @property
    def local(self) -> "LocalBackend":
        return self

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        """Directory holding the content-addressed objects."""
        return self.root / "objects"

    @property
    def sweeps_dir(self) -> Path:
        """Directory holding the per-sweep journals."""
        return self.root / "sweeps"

    def object_paths(self, key: str) -> Tuple[Path, Path]:
        """``(npz_path, sidecar_path)`` of a key (whether or not it exists)."""
        key = check_key(key)
        shard = self.objects_dir / key[:2]
        return shard / f"{key}.npz", shard / f"{key}.json"

    def sweep_path(self, sweep_id: str) -> Path:
        """Journal path of a sweep id (whether or not it exists)."""
        return self.sweeps_dir / f"{check_sweep_id(sweep_id)}.jsonl"

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------
    def read_sidecar_bytes(self, key: str) -> Optional[bytes]:
        _npz, sidecar_path = self.object_paths(key)
        try:
            return sidecar_path.read_bytes()
        except FileNotFoundError:
            return None

    def read_npz_bytes(self, key: str) -> Optional[bytes]:
        npz_path, _sidecar = self.object_paths(key)
        try:
            return npz_path.read_bytes()
        except FileNotFoundError:
            return None

    def write_object(self, key: str, npz_bytes: bytes, sidecar_bytes: bytes) -> Path:
        npz_path, sidecar_path = self.object_paths(key)
        # NPZ first, sidecar last: the sidecar commits the object.
        _atomic_write_bytes(npz_path, npz_bytes)
        _atomic_write_bytes(sidecar_path, sidecar_bytes)
        return sidecar_path

    def delete_object(self, key: str) -> None:
        npz_path, sidecar_path = self.object_paths(key)
        # Sidecar first: the object is uncommitted from the moment the
        # marker disappears.
        sidecar_path.unlink(missing_ok=True)
        npz_path.unlink(missing_ok=True)

    def list_keys(self) -> List[str]:
        if not self.objects_dir.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.objects_dir.glob("??/*.json")
            if len(path.stem) == KEY_HEX_LENGTH
        )

    def object_size(self, key: str) -> Optional[int]:
        npz_path, _sidecar = self.object_paths(key)
        try:
            return npz_path.stat().st_size
        except FileNotFoundError:
            return None

    def mark_read(self, key: str) -> None:
        """Bump the NPZ payload's mtime: the gc LRU evicts least-recently-read.

        The *sidecar* mtime is deliberately left alone — it records when the
        object was committed, which is what the default gc mode's age cutoff
        (``--keep-days``) is defined over.  Best-effort: a concurrent gc may
        have deleted the object between the read and the touch, which is
        fine (the read already succeeded).
        """
        npz_path, _sidecar = self.object_paths(key)
        try:
            os.utime(npz_path)
        except FileNotFoundError:  # pragma: no cover - raced deletion
            pass

    # ------------------------------------------------------------------
    # sweep journals
    # ------------------------------------------------------------------
    def append_sweep_line(self, sweep_id: str, line: str) -> None:
        path = self.sweep_path(sweep_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)

    def write_sweep_text(self, sweep_id: str, text: str) -> None:
        """Replace a journal wholesale (atomic) — the export/seed path.

        Appending is the journal's normal mode; replacement exists so that
        exporting a store into the same destination twice stays idempotent
        instead of duplicating every journal line.
        """
        _atomic_write_bytes(self.sweep_path(sweep_id), text.encode("utf-8"))

    def read_sweep_text(self, sweep_id: str) -> Optional[str]:
        try:
            return self.sweep_path(sweep_id).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def list_sweeps(self) -> List[str]:
        if not self.sweeps_dir.is_dir():
            return []
        # A stray file with an invalid id is not a journal (gc would fail on it).
        return sorted(
            path.stem
            for path in self.sweeps_dir.glob("*.jsonl")
            if _SWEEP_ID_RE.fullmatch(path.stem)
        )
