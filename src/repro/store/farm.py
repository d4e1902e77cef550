"""The sweep farm: a lease-based work queue over store cell keys.

:class:`SweepFarm` is the hub-side state machine behind the write-enabled
store service's ``/sweeps/<id>/lease`` / ``heartbeat`` / ``complete``
endpoints.  A client *submits* a sweep (its canonical payload plus the
ordered cell manifest of ``(index, size, protocol, key)`` rows resolved by
:func:`~repro.store.orchestrator.resolve_sweep_plans`); stateless workers
then *lease* missing cells one at a time, simulate them through the
ordinary :class:`~repro.store.orchestrator.CellPlan` path, *publish* the
result through ``PUT /cells/<key>`` and report *complete*.

Robustness is structural, not best-effort:

* **leases expire** — a worker that crashes, hangs or partitions simply
  stops heartbeating; after ``lease_ttl`` seconds its cell is re-granted to
  the next worker.  Expiry is lazy (checked on every farm operation), so
  no background reaper thread is needed.
* **the journal + the store are the durable state** — submission writes a
  ``manifest`` event to the sweep's journal and completions are backed by
  committed store objects.  Lease state itself is deliberately in-memory
  only: after a hub restart the farm lazily rebuilds a sweep from its
  journal manifest, marks every key already committed in the store as done
  (``"recovered"``), and lets lost leases expire naturally.  Journals stay
  an observability surface; the objects stay the only correctness
  dependency — exactly the store-wide contract.
* **completion is verified** — ``complete`` requires the cell's object to
  actually be committed in the store (the publish must have landed first),
  so a worker cannot mark work done that the fleet cannot read.
* **duplicates are accounted, not hidden** — every grant, expiry, failure
  and duplicate completion increments a counter reported by
  :meth:`SweepFarm.status`, so a farm run can *prove* that no cell was
  simulated twice except across legitimately expired leases
  (``granted - expired - failed == completes + recovered``).

The farm itself is transport-agnostic and fully testable without HTTP; the
service layer (:mod:`repro.store.service`) only translates requests into
these method calls.
"""

from __future__ import annotations

import math
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..telemetry import MetricsRegistry, default_registry, get_logger, kv
from .artifacts import ResultStore, StoreError
from .journal import SweepJournal, journal_events, latest_manifest, sweep_id as compute_sweep_id

__all__ = ["FarmCell", "FarmError", "SweepFarm", "UnknownLeaseError", "UnknownSweepError"]

_LOG = get_logger("store.farm")

#: Bounds on worker-pushed fleet snapshots: names must look like metric
#: names, and one sweep tracks at most this many workers / metrics per
#: worker so an abusive (or buggy) fleet cannot grow hub memory unbounded.
_FLEET_NAME_RE = re.compile(r"^[a-z][a-z0-9_]{0,63}$")
_MAX_FLEET_WORKERS = 256
_MAX_FLEET_METRICS = 32

#: Prometheus help strings of the lease-accounting counters (mirrors of the
#: per-sweep ``stats`` dict, aggregated farm-wide).
_STAT_HELP = {
    "granted": "Leases granted to workers.",
    "expired": "Leases that expired without completion (crashed or partitioned worker).",
    "failed": "Leases released early by workers reporting an error.",
    "completes": "Verified cell completions.",
    "duplicate_completes": "Idempotent duplicate or late completions.",
    "recovered": "Cells found already committed in the store.",
    "conflicts": "Sweep re-submissions with a conflicting manifest.",
}


class FarmError(StoreError):
    """Base class for work-queue protocol violations (bad submissions,
    completes without a committed object, manifest conflicts)."""


class UnknownSweepError(FarmError):
    """The sweep is not submitted and has no journal manifest to recover."""


class UnknownLeaseError(FarmError):
    """The lease token is unknown — never granted, expired and re-granted,
    or from before a hub restart."""


@dataclass
class FarmCell:
    """One cell of a farmed sweep and its queue state."""

    index: int
    size: int
    protocol: str
    key: str
    state: str = "pending"  # "pending" | "leased" | "done"
    status: str = ""  # once done: "farmed" | "recovered"
    worker: str = ""
    lease_token: str = ""
    lease_deadline: float = 0.0

    def manifest_entry(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "size": self.size,
            "protocol": self.protocol,
            "key": self.key,
        }

    @classmethod
    def from_entry(cls, entry: Dict[str, Any]) -> "FarmCell":
        """A pending cell from its manifest entry (inverts :meth:`manifest_entry`)."""
        return cls(
            index=int(entry["index"]),
            size=int(entry["size"]),
            protocol=str(entry["protocol"]),
            key=str(entry["key"]),
        )


@dataclass
class _FarmSweep:
    """All farm state of one sweep (cells in manifest order + counters)."""

    sweep_id: str
    payload: Dict[str, Any]
    cells: List[FarmCell]
    by_token: Dict[str, FarmCell] = field(default_factory=dict)
    stats: Dict[str, int] = field(
        default_factory=lambda: {
            "granted": 0,
            "expired": 0,
            "failed": 0,
            "completes": 0,
            "duplicate_completes": 0,
            "recovered": 0,
            "conflicts": 0,
        }
    )
    finished_journaled: bool = False
    #: Worker-pushed fleet-health snapshots: ``{worker: {metric: value}}``.
    workers: Dict[str, Dict[str, float]] = field(default_factory=dict)


class SweepFarm:
    """Lease-based work queue over the cells of submitted sweeps."""

    def __init__(
        self,
        store: ResultStore,
        *,
        lease_ttl: float = 60.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.lease_ttl = float(lease_ttl)
        # The hub's store service passes its per-server registry so farm
        # counters land on that server's /metrics; standalone farms fall
        # back to the process-global default registry.
        self._registry = registry if registry is not None else default_registry()
        self._lock = threading.Lock()
        self._sweeps: Dict[str, _FarmSweep] = {}
        self._token_counter = 0

    def _count(self, sweep: _FarmSweep, stat: str) -> None:
        """One accounting event: the per-sweep stats dict (the protocol
        contract reported by :meth:`status`) and the farm-wide registry
        counter move together."""
        sweep.stats[stat] += 1
        self._registry.counter(f"repro_farm_{stat}_total", _STAT_HELP.get(stat, "")).inc()

    # ------------------------------------------------------------------
    # submission & recovery
    # ------------------------------------------------------------------
    def submit(self, payload: Dict[str, Any], cells: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Register a sweep and its cell manifest; returns its status.

        Idempotent: re-submitting the same sweep (the id hashes the payload,
        so same payload ⇒ same id) is a no-op that refreshes nothing and
        conflicts loudly if the manifest's keys differ — two honest
        resolutions of one sweep payload cannot disagree, so a mismatch
        means mixed code versions across the fleet.
        """
        sid = compute_sweep_id(payload)
        rows = [FarmCell.from_entry(c) for c in cells]
        with self._lock:
            known = self._sweeps.get(sid)
            if known is not None:
                if [c.key for c in known.cells] != [c.key for c in rows]:
                    self._count(known, "conflicts")
                    _LOG.warning(
                        "sweep re-submitted with a conflicting manifest %s",
                        kv(sweep=sid, cells=len(rows)),
                    )
                    raise FarmError(
                        f"sweep {sid} re-submitted with a different cell manifest "
                        "(mixed code versions across the fleet?)"
                    )
                self._absorb_store(known)
                return self._status_locked(known)
            sweep = _FarmSweep(sweep_id=sid, payload=payload, cells=rows)
            journal = SweepJournal(self.store, payload)
            existing = journal.last_manifest()
            if existing is None or [c.get("key") for c in existing.get("cells", [])] != [
                c.key for c in rows
            ]:
                journal.manifest(cells=[c.manifest_entry() for c in rows])
            self._sweeps[sid] = sweep
            self._absorb_store(sweep)
            return self._status_locked(sweep)

    def _recover(self, sid: str) -> _FarmSweep:
        """Rebuild a sweep from its journal manifest after a hub restart."""
        text = self.store.backend.local.read_sweep_text(sid)
        if text is None:
            raise UnknownSweepError(f"unknown sweep {sid} (not submitted, no journal)")
        manifest = latest_manifest(journal_events(text))
        if manifest is None:
            raise UnknownSweepError(f"sweep {sid} has a journal but no manifest (not farmed)")
        rows = [FarmCell.from_entry(c) for c in manifest.get("cells", [])]
        sweep = _FarmSweep(sweep_id=sid, payload=manifest.get("sweep", {}), cells=rows)
        self._sweeps[sid] = sweep
        self._absorb_store(sweep, journal_recovered=False)
        return sweep

    def _absorb_store(self, sweep: _FarmSweep, *, journal_recovered: bool = True) -> None:
        """Mark every cell whose object is already committed as done.

        Runs at submission and recovery; ``journal_recovered`` suppresses
        the journal line during restart recovery (those completions were
        journaled by whoever committed them — re-recording would double the
        history for no observability gain).
        """
        journal = SweepJournal(self.store, sweep.payload) if journal_recovered else None
        for cell in sweep.cells:
            if cell.state == "done":
                continue
            if self.store.backend.local.read_sidecar_bytes(cell.key) is not None:
                self._mark_done(sweep, cell, status="recovered", worker="", journal=journal)

    def _ensure(self, sid: str) -> _FarmSweep:
        sweep = self._sweeps.get(sid)
        if sweep is None:
            sweep = self._recover(sid)
        return sweep

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------
    def _expire_locked(self, sweep: _FarmSweep) -> None:
        now = time.monotonic()
        for cell in sweep.cells:
            if cell.state == "leased" and cell.lease_deadline < now:
                _LOG.info(
                    "lease expired %s",
                    kv(
                        sweep=sweep.sweep_id,
                        key=cell.key,
                        worker=cell.worker,
                        lease=cell.lease_token,
                    ),
                )
                sweep.by_token.pop(cell.lease_token, None)
                cell.state = "pending"
                cell.lease_token = ""
                cell.worker = ""
                self._count(sweep, "expired")

    def lease(self, sid: str, worker: str) -> Optional[Dict[str, Any]]:
        """Grant the lowest-index available cell to ``worker``.

        Returns None when nothing is leasable — either the sweep is done or
        every remaining cell is currently leased (the worker should poll
        again; a crashed peer's lease will expire).  Cells whose object
        already exists in the store are marked done (``"recovered"``) and
        skipped, so a warm store farms zero cells.
        """
        with self._lock:
            sweep = self._ensure(sid)
            self._expire_locked(sweep)
            journal = SweepJournal(self.store, sweep.payload)
            for cell in sweep.cells:
                if cell.state != "pending":
                    continue
                if self.store.backend.local.read_sidecar_bytes(cell.key) is not None:
                    self._mark_done(sweep, cell, status="recovered", worker="", journal=journal)
                    continue
                self._token_counter += 1
                token = f"{cell.key[:12]}-{self._token_counter:06d}"
                cell.state = "leased"
                cell.worker = str(worker)
                cell.lease_token = token
                cell.lease_deadline = time.monotonic() + self.lease_ttl
                sweep.by_token[token] = cell
                self._count(sweep, "granted")
                _LOG.debug(
                    "lease granted %s",
                    kv(sweep=sid, key=cell.key, worker=cell.worker, lease=token),
                )
                return {
                    "sweep": sid,
                    "lease": token,
                    "ttl": self.lease_ttl,
                    **cell.manifest_entry(),
                }
            return None

    def heartbeat(self, sid: str, token: str) -> Dict[str, Any]:
        """Renew a lease's deadline; raises :class:`UnknownLeaseError` when
        the lease already expired (the worker must abandon the cell)."""
        with self._lock:
            sweep = self._ensure(sid)
            self._expire_locked(sweep)
            cell = sweep.by_token.get(token)
            if cell is None or cell.state != "leased":
                raise UnknownLeaseError(
                    f"lease {token} of sweep {sid} is not active (expired or never granted)"
                )
            cell.lease_deadline = time.monotonic() + self.lease_ttl
            return {"sweep": sid, "lease": token, "ttl": self.lease_ttl, "key": cell.key}

    def fail(self, sid: str, token: str, *, reason: str = "") -> Dict[str, Any]:
        """Release a lease early (worker hit an error); the cell re-queues."""
        with self._lock:
            sweep = self._ensure(sid)
            self._expire_locked(sweep)
            cell = sweep.by_token.pop(token, None)
            if cell is not None and cell.state == "leased":
                _LOG.info(
                    "lease failed by worker %s",
                    kv(sweep=sid, key=cell.key, worker=cell.worker, reason=reason),
                )
                cell.state = "pending"
                cell.lease_token = ""
                cell.worker = ""
                self._count(sweep, "failed")
            return self._status_locked(sweep)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _mark_done(
        self,
        sweep: _FarmSweep,
        cell: FarmCell,
        *,
        status: str,
        worker: str,
        journal: Optional[SweepJournal],
    ) -> None:
        if cell.state == "leased":
            sweep.by_token.pop(cell.lease_token, None)
        cell.state = "done"
        cell.status = status
        cell.worker = worker
        cell.lease_token = ""
        if status == "recovered":
            self._count(sweep, "recovered")
        if journal is not None:
            journal.cell(
                index=cell.index,
                size=cell.size,
                protocol=cell.protocol,
                key=cell.key,
                status=status,
                worker=worker or None,
            )
        if not sweep.finished_journaled and all(c.state == "done" for c in sweep.cells):
            sweep.finished_journaled = True
            if journal is not None:
                journal.finish()

    def complete(self, sid: str, token: str, *, key: str, worker: str = "") -> Dict[str, Any]:
        """Record a published cell as done.

        Requires the object to be committed in the store — completion
        without a readable artifact is a protocol violation.  Idempotent
        for late and duplicate completes: a worker whose lease expired
        mid-publish (or that retried an ambiguous POST) gets a clean
        acknowledgement as long as the cell is done with the same key,
        counted under ``duplicate_completes`` so the accounting stays
        honest.
        """
        with self._lock:
            sweep = self._ensure(sid)
            self._expire_locked(sweep)
            cell = sweep.by_token.get(token)
            if cell is not None and cell.key != key:
                raise FarmError(
                    f"lease {token} covers cell {cell.key}, not {key} "
                    "(worker/plan resolution mismatch)"
                )
            if cell is None:
                # Late complete: the lease expired (or the hub restarted).
                # Find the cell by key; if it is done — or its object is
                # committed — acknowledge idempotently.
                matches = [c for c in sweep.cells if c.key == key]
                if not matches:
                    raise FarmError(f"sweep {sid} has no cell {key}")
                cell = matches[0]
                if cell.state == "done":
                    self._count(sweep, "duplicate_completes")
                    _LOG.debug(
                        "duplicate complete %s", kv(sweep=sid, key=key, worker=worker)
                    )
                    return self._status_locked(sweep)
            if self.store.backend.local.read_sidecar_bytes(key) is None:
                raise FarmError(
                    f"cell {key} completed without a committed store object "
                    "(publish it before completing)"
                )
            if cell.state == "done":
                self._count(sweep, "duplicate_completes")
                _LOG.debug(
                    "duplicate complete %s", kv(sweep=sid, key=key, worker=worker)
                )
                return self._status_locked(sweep)
            journal = SweepJournal(self.store, sweep.payload)
            self._count(sweep, "completes")
            _LOG.debug("cell completed %s", kv(sweep=sid, key=key, worker=worker))
            self._mark_done(sweep, cell, status="farmed", worker=worker, journal=journal)
            return self._status_locked(sweep)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def _status_locked(self, sweep: _FarmSweep) -> Dict[str, Any]:
        counts = {"pending": 0, "leased": 0, "done": 0}
        for cell in sweep.cells:
            counts[cell.state] += 1
        doc = {
            "sweep": sweep.sweep_id,
            "cells": len(sweep.cells),
            **counts,
            "stats": dict(sweep.stats),
        }
        # Only present once a worker pushed a snapshot: pre-telemetry status
        # documents keep their exact shape.
        if sweep.workers:
            doc["workers"] = {name: dict(m) for name, m in sweep.workers.items()}
        return doc

    def status(self, sid: str) -> Dict[str, Any]:
        """Queue counts and accounting counters of one sweep."""
        with self._lock:
            sweep = self._ensure(sid)
            self._expire_locked(sweep)
            self._absorb_store(sweep)
            return self._status_locked(sweep)

    # ------------------------------------------------------------------
    # fleet health
    # ------------------------------------------------------------------
    def worker_metrics(
        self, sid: str, worker: str, metrics: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Absorb one worker's pushed fleet-health snapshot.

        Snapshots are observability only — they never influence leasing or
        completion.  Validation is therefore lenient but bounded: metric
        names must look like metric names (``[a-z][a-z0-9_]*``), values must
        be finite numbers, and both the workers-per-sweep and
        metrics-per-worker counts are capped.  Accepted values are stored on
        the sweep (surfaced by :meth:`status`) and exported as
        ``repro_fleet_<metric>{sweep=...,worker=...}`` gauges.
        """
        worker = str(worker).strip()
        if not worker or len(worker) > 64:
            raise FarmError("worker metrics need a worker name of 1-64 characters")
        accepted: Dict[str, float] = {}
        for name, value in (metrics or {}).items():
            if not isinstance(name, str) or not _FLEET_NAME_RE.fullmatch(name):
                continue
            try:
                number = float(value)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(number):
                continue
            accepted[name] = number
            if len(accepted) >= _MAX_FLEET_METRICS:
                break
        with self._lock:
            sweep = self._ensure(sid)
            if worker not in sweep.workers and len(sweep.workers) >= _MAX_FLEET_WORKERS:
                raise FarmError(
                    f"sweep {sid} already tracks {_MAX_FLEET_WORKERS} workers"
                )
            sweep.workers[worker] = accepted
        for name, number in accepted.items():
            self._registry.gauge(
                f"repro_fleet_{name}",
                "Worker-pushed fleet health snapshot value.",
                labels=("sweep", "worker"),
            ).labels(sweep=sid, worker=worker).set(number)
        _LOG.debug(
            "fleet metrics absorbed %s",
            kv(sweep=sid, worker=worker, metrics=len(accepted)),
        )
        return {"sweep": sid, "worker": worker, "accepted": sorted(accepted)}

    def export_queue_gauges(self) -> None:
        """Refresh the farm-wide queue-depth gauges (scrape-time hook)."""
        counts = {"pending": 0, "leased": 0, "done": 0}
        with self._lock:
            sweeps = len(self._sweeps)
            for sweep in self._sweeps.values():
                for cell in sweep.cells:
                    counts[cell.state] += 1
        gauge = self._registry.gauge(
            "repro_farm_cells", "Farmed cells across submitted sweeps, by state.",
            labels=("state",),
        )
        for state, value in counts.items():
            gauge.labels(state=state).set(value)
        self._registry.gauge(
            "repro_farm_sweeps", "Sweeps currently tracked by the farm."
        ).set(sweeps)
