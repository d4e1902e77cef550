"""Content-addressed result store and resumable sweep orchestration.

Every (graph, protocol, seeds) cell in this package is a pure
function of its spec, so finished cells are cached *exactly*: the store maps
a canonical cell key (:mod:`repro.store.keys`) to a compressed artifact
holding the full :class:`~repro.core.results.TrialSet`
(:mod:`repro.store.artifacts`), sweeps journal their progress for resume and
garbage-collection anchoring (:mod:`repro.store.journal`), and
:mod:`repro.store.orchestrator` resolves (spec, case) pairs into the cell
plans the experiment runner executes and the reporting layer looks up.

Storage is pluggable (:mod:`repro.store.backends`): the same
:class:`ResultStore` facade runs over a local directory
(:class:`~repro.store.backends.LocalBackend`) or over the HTTP service of
:mod:`repro.store.service` (``repro store serve``) through
:class:`~repro.store.backends.RemoteBackend`, which read-through-caches
every fetched object locally so a warm central store serves many laptops
and CI runs while each object crosses the network at most once.  Started
with an auth token, the service additionally exposes an authenticated,
server-verified write path plus a lease-based work queue
(:mod:`repro.store.farm`), and ``repro worker``
(:mod:`repro.store.worker`) turns any machine into a stateless compute
node that leases missing cells, simulates them and publishes the results
back — crash-safe on both sides by construction.

Enable it with ``store=`` on :func:`repro.experiments.runner.run_trial_set`
/ :func:`~repro.experiments.runner.run_experiment`, the ``--store`` CLI flag
or the ``REPRO_STORE`` environment variable (a directory path or an
``http(s)://host:port`` service URL); manage it with
``repro store serve|submit|status|ls|info|gc|export`` and ``repro worker``.
"""

from .artifacts import (
    STORE_ENV_VAR,
    ResultStore,
    StoreConflictError,
    StoreCorruptionError,
    StoreError,
    StoreUnavailableError,
    cached_document,
    resolve_store,
)
from .backends import (
    CACHE_ENV_VAR,
    LocalBackend,
    RemoteBackend,
    StoreBackend,
    resolve_backend,
)
from .farm import FarmError, SweepFarm, UnknownLeaseError, UnknownSweepError
from .journal import SweepJournal, sweep_id
from .keys import (
    SEMANTICS_VERSION,
    STORE_FORMAT_VERSION,
    canonical_json,
    cell_key,
    document_cell_payload,
    dynamics_spec,
    graph_fingerprint,
    trial_cell_payload,
)
from .orchestrator import (
    CellPlan,
    GraphStub,
    ManifestMismatchError,
    SweepCellPlan,
    resolve_cell,
    resolve_sweep_plans,
    sweep_payload,
    sweep_shape,
)
from .service import StoreService, serve
from .worker import run_worker, submit_sweep, sweep_status

__all__ = [
    "CACHE_ENV_VAR",
    "CellPlan",
    "FarmError",
    "GraphStub",
    "LocalBackend",
    "ManifestMismatchError",
    "RemoteBackend",
    "ResultStore",
    "SEMANTICS_VERSION",
    "STORE_ENV_VAR",
    "STORE_FORMAT_VERSION",
    "StoreBackend",
    "StoreConflictError",
    "StoreCorruptionError",
    "StoreError",
    "StoreService",
    "StoreUnavailableError",
    "SweepCellPlan",
    "SweepFarm",
    "SweepJournal",
    "UnknownLeaseError",
    "UnknownSweepError",
    "cached_document",
    "canonical_json",
    "cell_key",
    "document_cell_payload",
    "dynamics_spec",
    "graph_fingerprint",
    "resolve_backend",
    "resolve_cell",
    "resolve_store",
    "resolve_sweep_plans",
    "run_worker",
    "serve",
    "submit_sweep",
    "sweep_id",
    "sweep_payload",
    "sweep_shape",
    "sweep_status",
    "trial_cell_payload",
]
