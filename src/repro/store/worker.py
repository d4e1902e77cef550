"""``repro worker``: a stateless lease-and-publish loop against a farm hub.

A worker owns no sweep state.  Everything it needs arrives from the hub:
the sweep's journal manifest names the cells (and the sweep payload names
the experiment), the lease endpoint hands out one missing cell at a time,
and the content-addressed store absorbs the results.  Killing a worker at
*any* instruction loses at most one lease, which expires and is re-granted;
restarting the hub loses at most the in-memory lease table, which the farm
rebuilds from the journal manifest plus the committed objects.  The loop:

1. ``POST /sweeps/<id>/lease`` — receive ``(index, size, protocol, key)``;
2. re-resolve the cell's :class:`~repro.store.orchestrator.CellPlan` from
   the sweep payload (same resolution the submitting client ran) and check
   the plan's key equals the leased key — a mismatch means the worker runs
   different code than the submitter and must not compute anything;
3. simulate through the sweep runner's cell function (one
   :func:`~repro.experiments.runner.run_trial_set` call) with a publishing
   :class:`~repro.store.backends.RemoteBackend`, so the computed object
   lands on the hub through the authenticated, server-verified
   ``PUT /cells/<key>`` write path (bit-identical to what a local run would
   store, because it *is* the local path);
4. ``POST /sweeps/<id>/complete`` — idempotent, so retrying after an
   ambiguous network failure is safe.

A heartbeat thread renews the lease at a third of its TTL while the
simulation runs; if the hub reports the lease lost (expired during a long
stall, or re-granted after a partition) the worker abandons the cell —
never publishes a *conflicting* object, since cells are pure functions, but
avoids wasted work.  Hub outages (restart, crash, network partition) are
retried with capped sleeps for up to ``hub_patience`` seconds, because the
farm is designed for hubs that come back.

The module lives in :mod:`repro.store` but executes experiments, so the
experiment-layer imports (registry, runner) happen lazily inside functions,
keeping the package import graph one-way (``experiments -> store``) at
module load.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..telemetry import default_registry, get_logger, kv, span
from .artifacts import ResultStore, StoreError, StoreUnavailableError
from .backends.remote import RemoteBackend
from .journal import journal_events, latest_manifest, sweep_id as compute_sweep_id
from .orchestrator import SweepCellPlan, resolve_sweep_plans, sweep_payload, sweep_shape

__all__ = ["run_worker", "submit_sweep", "sweep_status", "STALL_ENV_VAR"]

_LOG = get_logger("store.worker")

#: Test/fault-injection hook: a worker sleeps this many seconds between
#: taking a lease and starting the simulation, giving kill-mid-cell tests a
#: deterministic window where the lease is held but nothing is published.
STALL_ENV_VAR = "REPRO_WORKER_STALL_SECONDS"

#: ``experiment_id -> ExperimentConfig`` resolver; defaults to the registry.
ConfigResolver = Callable[[str], Any]


def _registry_resolver(experiment_id: str):
    from ..experiments.registry import get_experiment

    return get_experiment(experiment_id)


def _resolve_plans(
    payload: Dict[str, Any], config_resolver: Optional[ConfigResolver]
) -> List[SweepCellPlan]:
    """Re-run the submitter's sweep resolution from a sweep payload."""
    resolver = config_resolver or _registry_resolver
    config = resolver(payload["experiment_id"])
    labels = [spec.display_label for spec in config.protocols]
    if labels != list(payload.get("protocols", labels)):
        raise StoreError(
            f"experiment {payload['experiment_id']!r} resolves to protocols {labels}, "
            f"but the sweep was submitted with {payload.get('protocols')} "
            "(mixed code versions between submitter and worker)"
        )
    backend = payload.get("backend", "auto")
    if backend not in ("auto", "batched"):
        raise StoreError(
            f"sweep {payload['experiment_id']!r} was submitted for backend {backend!r}, "
            "which no longer exists; every cell is computed batched"
        )
    return resolve_sweep_plans(
        config,
        base_seed=int(payload["base_seed"]),
        sizes=tuple(int(s) for s in payload["sizes"]),
        trials=int(payload["trials"]),
        dynamics=payload.get("dynamics"),
    )


def _last_manifest(backend: RemoteBackend, sid: str) -> Dict[str, Any]:
    """The sweep's latest journal ``manifest`` event, fetched from the hub."""
    text = backend.read_sweep_text(sid)
    if text is None:
        raise StoreError(f"hub has no journal for sweep {sid} (was it submitted?)")
    manifest = latest_manifest(journal_events(text))
    if manifest is None:
        raise StoreError(f"sweep {sid} has a journal but no manifest (not submitted to the farm)")
    return manifest


def submit_sweep(
    url: str,
    config: Any,
    *,
    token: str,
    base_seed: int = 0,
    sizes: Optional[Tuple[int, ...]] = None,
    trials: Optional[int] = None,
    dynamics: Any = None,
    cache: Any = None,
) -> Tuple[str, Dict[str, Any]]:
    """Resolve a sweep's cell manifest and register it with the hub's farm.

    Returns ``(sweep_id, farm status)``.  Submission is idempotent — the
    sweep id hashes the payload, and the hub conflicts loudly if the same
    payload ever maps to different cell keys.
    """
    sweep, num_trials = sweep_shape(config, sizes, trials)
    shape = dict(base_seed=base_seed, sizes=sweep, trials=num_trials, dynamics=dynamics)
    payload = sweep_payload(config, **shape)
    plans = resolve_sweep_plans(config, **shape)
    remote = RemoteBackend(url, token=token, publish=True, cache=cache)
    status = remote.post_json(
        "/sweeps/submit",
        {"sweep": payload, "cells": [p.manifest_entry() for p in plans]},
        idempotent=True,  # same payload, same manifest: replaying is a no-op
    )
    if status is None:  # pragma: no cover - submit route always exists
        raise StoreError(f"hub at {url} has no farm endpoints")
    return compute_sweep_id(payload), status


def sweep_status(url: str, sid: str, *, token: str, cache: Any = None) -> Dict[str, Any]:
    """The hub's farm status document for one sweep."""
    remote = RemoteBackend(url, token=token, cache=cache)
    payload = remote._get(f"/sweeps/{sid}/status")
    if payload is None:
        raise StoreError(f"hub at {url} knows no sweep {sid}")
    return json.loads(payload)


class _Heartbeat:
    """Background lease renewal; flags the lease lost instead of raising.

    Successful renewals are timed: ``beats`` / ``rtt_total`` / ``rtt_last``
    feed the worker's fleet-health snapshot (heartbeat RTT is the cheapest
    live proxy for worker-to-hub latency).
    """

    def __init__(self, backend: RemoteBackend, sid: str, token: str, interval: float) -> None:
        self._backend = backend
        self._sid = sid
        self._token = token
        self._interval = max(interval, 0.05)
        self._stop = threading.Event()
        self.lost = False
        self.beats = 0
        self.rtt_total = 0.0
        self.rtt_last = 0.0
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        from .artifacts import StoreConflictError

        while not self._stop.wait(self._interval):
            started = time.monotonic()
            try:
                self._backend.post_json(
                    f"/sweeps/{self._sid}/heartbeat",
                    {"lease": self._token},
                    idempotent=True,
                )
            except StoreConflictError:
                # 409: the lease expired (and may be re-granted).  The cell
                # is a pure function, so a racing double-compute publishes
                # identical bytes; abandoning just avoids the wasted work.
                _LOG.warning(
                    "heartbeat rejected, lease lost %s",
                    kv(sweep=self._sid, lease=self._token),
                )
                self.lost = True
                return
            except (StoreError, StoreUnavailableError):
                # Hub unreachable or restarting: keep trying until the main
                # loop finishes or the lease genuinely expires.
                continue
            self.rtt_last = time.monotonic() - started
            self.rtt_total += self.rtt_last
            self.beats += 1

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def run_worker(
    url: str,
    sid: str,
    *,
    token: str,
    name: Optional[str] = None,
    cache: Any = None,
    poll_interval: float = 0.2,
    hub_patience: float = 60.0,
    config_resolver: Optional[ConfigResolver] = None,
    max_cells: Optional[int] = None,
) -> Dict[str, Any]:
    """Lease, simulate and publish cells of sweep ``sid`` until it is done.

    Returns a summary ``{"worker", "computed", "abandoned", "status"}``.
    The loop survives hub restarts: any :class:`StoreUnavailableError` from
    the farm endpoints is retried with capped sleeps until the hub has been
    unreachable for ``hub_patience`` seconds straight, and every step that
    could have half-applied (publish, complete) is idempotent by
    construction.  ``max_cells`` bounds how many cells this worker computes
    (None = until the sweep is done) — test and example hooks, mostly.
    """
    from ..experiments.runner import _run_cell

    worker_name = name or f"worker-{os.getpid()}"
    backend = RemoteBackend(url, token=token, publish=True, cache=cache)
    store = ResultStore(backend=backend)

    manifest = _last_manifest(backend, sid)
    plans = _resolve_plans(manifest.get("sweep", {}), config_resolver)
    by_key: Dict[str, SweepCellPlan] = {p.plan.key: p for p in plans}
    for row in manifest.get("cells", []):
        if row.get("key") not in by_key:
            raise StoreError(
                f"sweep {sid} cell {row.get('key')} does not re-resolve on this worker "
                "(mixed code versions between submitter and worker)"
            )

    stall = float(os.environ.get(STALL_ENV_VAR, "0") or 0)
    computed = 0
    abandoned = 0
    heartbeats = 0
    heartbeat_rtt_total = 0.0
    heartbeat_rtt_last = 0.0
    status: Dict[str, Any] = {}
    hub_down_since: Optional[float] = None

    # Client-side telemetry (retry/degradation counters) accumulates in the
    # process-global registry; deltas from these baselines are what this
    # worker itself caused during this run.
    registry = default_registry()
    base_retries = registry.counter_value("repro_remote_attempt_failures_total")
    base_degraded = registry.counter_value("repro_remote_degraded_reads_total")
    base_unavailable = registry.counter_value("repro_remote_unavailable_total")

    def _fleet_snapshot() -> Dict[str, float]:
        snapshot: Dict[str, float] = {
            "cells_completed": computed,
            "cells_abandoned": abandoned,
            "remote_retries": registry.counter_value("repro_remote_attempt_failures_total")
            - base_retries,
            "degraded_reads": registry.counter_value("repro_remote_degraded_reads_total")
            - base_degraded,
            "hub_unavailable": registry.counter_value("repro_remote_unavailable_total")
            - base_unavailable,
            "heartbeats": heartbeats,
        }
        if heartbeats:
            snapshot["heartbeat_rtt_seconds"] = heartbeat_rtt_total / heartbeats
            snapshot["heartbeat_rtt_last_seconds"] = heartbeat_rtt_last
        return snapshot

    def _push_metrics() -> None:
        """Push this worker's fleet-health snapshot to the hub (best-effort).

        Fleet health is observability only: an unreachable hub — or an older
        one without the ``/sweeps/<id>/metrics`` route (its 404 surfaces as
        a ``None`` response, not an exception) — must never fail the loop.
        """
        try:
            backend.post_json(
                f"/sweeps/{sid}/metrics",
                {"worker": worker_name, "metrics": _fleet_snapshot()},
                idempotent=True,
            )
        except StoreError as exc:
            _LOG.debug("fleet metrics push failed %s", kv(sweep=sid, error=str(exc)))

    _LOG.info(
        "worker starting %s",
        kv(worker=worker_name, sweep=sid, hub=url, cells=len(by_key)),
    )

    while True:
        if max_cells is not None and computed >= max_cells:
            break
        try:
            with span("farm.lease", sweep=sid, worker=worker_name):
                grant = backend.post_json(f"/sweeps/{sid}/lease", {"worker": worker_name})
        except StoreUnavailableError:
            now = time.monotonic()
            if hub_down_since is None:
                _LOG.warning(
                    "hub unreachable, retrying %s",
                    kv(worker=worker_name, sweep=sid, hub=url, patience=hub_patience),
                )
            hub_down_since = hub_down_since or now
            if now - hub_down_since > hub_patience:
                _LOG.error(
                    "hub unreachable beyond patience, giving up %s",
                    kv(worker=worker_name, sweep=sid, hub=url),
                )
                raise
            time.sleep(min(poll_interval * 4, 2.0))
            continue
        hub_down_since = None
        if grant is None:
            raise StoreError(f"hub at {url} knows no sweep {sid}")
        if not grant.get("granted"):
            status = grant
            if grant.get("pending", 0) == 0 and grant.get("leased", 0) == 0:
                break  # every cell is done
            time.sleep(poll_interval)  # peers hold the remaining leases
            continue

        key = grant["key"]
        lease_token = grant["lease"]
        ttl = float(grant.get("ttl", 60.0))
        cell = by_key[key]
        _LOG.debug(
            "lease received %s",
            kv(worker=worker_name, sweep=sid, key=key, lease=lease_token, ttl=ttl),
        )
        if stall > 0:
            time.sleep(stall)  # fault-injection window (kill -9 tests)
        with span(
            "worker.cell", sweep=sid, key=key, worker=worker_name
        ), _Heartbeat(backend, sid, lease_token, interval=ttl / 3.0) as heartbeat:
            trial_set = _run_cell(
                cell,
                cell.case,
                experiment_id=str(manifest["sweep"]["experiment_id"]),
                base_seed=int(manifest["sweep"]["base_seed"]),
                store=store,
                force=False,
            )
            if trial_set.store_status[0] == "cached":
                # The hub lost (or never had) the object but our read-through
                # cache holds it: push the cached bytes through the verified
                # write path.  publish_object is idempotent, so this is safe
                # even when racing another worker.
                npz = backend.local.read_npz_bytes(key)
                sidecar = backend.local.read_sidecar_bytes(key)
                if npz is None or sidecar is None:  # pragma: no cover - raced gc
                    raise StoreError(f"cell {key} vanished from the local cache mid-publish")
                backend.publish_object(key, npz, sidecar)
        heartbeats += heartbeat.beats
        heartbeat_rtt_total += heartbeat.rtt_total
        if heartbeat.beats:
            heartbeat_rtt_last = heartbeat.rtt_last
        if heartbeat.lost:
            abandoned += 1
            _LOG.warning(
                "abandoning cell, lease lost mid-run %s",
                kv(worker=worker_name, sweep=sid, key=key),
            )
            _push_metrics()
            continue
        try:
            status = backend.post_json(
                f"/sweeps/{sid}/complete",
                {"lease": lease_token, "key": key, "worker": worker_name},
                idempotent=True,  # completes are idempotent server-side
            ) or {}
        except StoreUnavailableError:
            # The publish landed (or was cached); the lease will expire and
            # the farm will recover the committed object.  Count the work,
            # keep looping — the next lease call retries the hub anyway.
            status = {}
        computed += 1
        _LOG.debug(
            "cell completed %s",
            kv(worker=worker_name, sweep=sid, key=key, computed=computed),
        )
        _push_metrics()

    _push_metrics()
    _LOG.info(
        "worker finished %s",
        kv(worker=worker_name, sweep=sid, computed=computed, abandoned=abandoned),
    )
    return {
        "worker": worker_name,
        "computed": computed,
        "abandoned": abandoned,
        "status": status,
    }

