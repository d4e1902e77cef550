"""Append-only sweep journals: what a resumable sweep did, cell by cell.

Correctness of resume never depends on the journal — the content-addressed
objects are the ground truth, and an interrupted sweep resumes simply
because its completed cells are already in the store.  The journal exists
for two jobs the objects cannot do:

* **observability** — ``repro store info --sweep`` style inspection of which
  cells of a sweep are done, which were cache hits, and where an interrupted
  run stopped;
* **gc anchoring** — journals are the liveness roots of
  :meth:`ResultStore.gc`: an object referenced by any journal is kept.

Each sweep appends JSON lines to ``sweeps/<sweep_id>.jsonl``.  Appends are
single ``write`` calls of one line, so an interruption leaves at worst one
torn tail line, which every reader tolerates.  The sweep id hashes the sweep
description (experiment id, seed, sizes, trials, backend, dynamics), so
re-running the same sweep — including a resume after a kill — appends to the
same journal, and the file reads as the sweep's history.

Journals go through the store's backend: on a local store they live in the
store root, on a remote store they are written to the read-through cache
(the service is read-only) while reads fall back to the service's
``GET /sweeps/<id>`` for sweeps journaled on the server side.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional

from .keys import canonical_json

if TYPE_CHECKING:  # artifacts reads journals through journal_events
    from .artifacts import ResultStore

__all__ = ["SweepJournal", "journal_events", "latest_manifest", "sweep_id"]


def sweep_id(payload: Dict[str, Any]) -> str:
    """Stable 16-hex-digit id of a sweep description (canonical-JSON hash)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def journal_events(text: Optional[str]) -> Iterator[Dict[str, Any]]:
    """The events of a journal's text, skipping blank and torn lines.

    ``None`` (no journal) yields nothing.  A line that does not parse as a
    JSON object is the torn tail of an interrupted append and is skipped.
    """
    for line in (text or "").splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            yield event


def latest_manifest(events: Iterable[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The last ``manifest`` event among ``events`` (None if there is none)."""
    manifest = None
    for event in events:
        if event.get("event") == "manifest":
            manifest = event
    return manifest


class SweepJournal:
    """Append-only JSONL journal of one sweep inside a result store."""

    def __init__(self, store: ResultStore, sweep: Dict[str, Any]) -> None:
        self.store = store
        self.sweep = sweep
        self.sweep_id = sweep_id(sweep)
        self.path = store.backend.local.sweep_path(self.sweep_id)

    def record(self, event: str, **fields: Any) -> None:
        """Append one event line (creates the journal on first use)."""
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        payload = {"event": event, "at": stamp, **fields}
        line = json.dumps(payload, sort_keys=True) + "\n"
        self.store.backend.append_sweep_line(self.sweep_id, line)

    def start(self, *, cells: int) -> None:
        """Record the start of a (re)run of this sweep."""
        self.record("sweep-start", cells=cells, sweep=self.sweep)

    def cell(
        self,
        *,
        index: int,
        size: int,
        protocol: str,
        key: str,
        status: str,
        worker: Optional[str] = None,
    ) -> None:
        """Record one completed cell.

        ``status`` is ``"cached"`` / ``"computed"`` for local sweeps,
        ``"farmed"`` for a cell published by a leased worker and
        ``"recovered"`` for one the farm found already committed in the
        store; ``worker`` names the publishing worker when known.
        """
        fields: Dict[str, Any] = {
            "index": index,
            "size": size,
            "protocol": protocol,
            "key": key,
            "status": status,
        }
        if worker is not None:
            fields["worker"] = worker
        self.record("cell", **fields)

    def manifest(self, *, cells: List[Dict[str, Any]]) -> None:
        """Record the sweep's full cell manifest (the farm's durable state).

        Each entry carries ``index``, ``size``, ``protocol`` and ``key``.
        The manifest plus the committed store objects is everything a
        restarted hub needs to rebuild the work queue: leases themselves are
        deliberately *not* journaled — a lost lease merely expires, while a
        committed object is ground truth forever — keeping the journal an
        observability surface rather than a correctness dependency.
        """
        self.record("manifest", cells=cells, sweep=self.sweep)

    def last_manifest(self) -> Optional[Dict[str, Any]]:
        """The most recent manifest event (None if this sweep has none)."""
        return latest_manifest(self.events())

    def finish(self) -> None:
        """Record that the sweep ran to completion."""
        self.record("sweep-end")

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def events(self) -> Iterator[Dict[str, Any]]:
        """Parsed journal events, tolerating a torn tail line."""
        return journal_events(self.store.backend.read_sweep_text(self.sweep_id))
