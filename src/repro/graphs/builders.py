"""The family table: each graph family's version and its build from params.

A sweep point's graph is a function of its *builder spec* alone.  Every
graph family in :mod:`repro.graphs` (and the corpus generators) registers,
next to its construction code, a ``(family, builder_version)`` pair and a
build that constructs the instance from the family's builder params.  A
:class:`repro.experiments.config.CaseBuilder` maps a sweep point (size
parameter, case seed) to those params — without building anything — and
builds through this table, so the spec ``{"family", "version", "params",
"case_revision"}`` it reports is exactly what the build consumed.

That is the trust anchor of warm manifests: the sweep journal stores the
spec next to the graph fingerprint it produced, and
:func:`repro.store.orchestrator.resolve_sweep_plans` trusts a manifest
entry only when the spec it recomputes today matches the recorded one bit
for bit.  Bump a family's registered version whenever its construction
changes the instance it emits for the same parameters; bump a case
builder's ``case_revision`` when its parameter or source derivation
changes.  Either bump makes every previously recorded spec mismatch, so the
warm path falls back to really building the graph — a stale manifest can
slow a run down, never corrupt it.  ``REPRO_VERIFY_MANIFEST=1`` adds a
paranoia mode that rebuilds anyway and cross-checks the fingerprint.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

__all__ = [
    "build_graph",
    "builder_spec",
    "builder_version",
    "register_builder",
    "registered_builders",
]

_REGISTRY: Dict[str, int] = {}
_BUILDS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def register_builder(
    family: str, version: int, build: Optional[Callable[[Dict[str, Any]], Any]] = None
) -> None:
    """Register (or re-register, idempotently) one graph family's version.

    ``build(params)`` constructs the family's instance from its builder
    params, reading the keys it needs by name (random families read their
    ``seed`` there, so a build is a pure function of the spec).  Re-registering
    the same family with a *different* version raises — two modules
    disagreeing about a family's version would make manifest trust depend
    on import order.
    """
    version = int(version)
    if version < 1:
        raise ValueError(f"builder version must be >= 1, got {version}")
    existing = _REGISTRY.get(family)
    if existing is not None and existing != version:
        raise ValueError(
            f"builder family {family!r} already registered with version "
            f"{existing}, cannot re-register as {version}"
        )
    _REGISTRY[family] = version
    if build is not None:
        _BUILDS[family] = build


def build_graph(family: str, params: Dict[str, Any]):
    """Build one family's instance from its builder params (the family table)."""
    try:
        build = _BUILDS[family]
    except KeyError:
        raise KeyError(f"graph builder family {family!r} has no registered build") from None
    return build(params)


def builder_version(family: str) -> int:
    """The registered version of one family (``KeyError`` if unregistered)."""
    try:
        return _REGISTRY[family]
    except KeyError:
        raise KeyError(f"graph builder family {family!r} is not registered") from None


def registered_builders() -> Dict[str, int]:
    """A snapshot of every registered ``family -> version`` pair."""
    return dict(_REGISTRY)


def builder_spec(
    family: str, params: Dict[str, Any], *, case_revision: int = 1
) -> Dict[str, Any]:
    """The canonical, JSON-round-trippable spec of one parameterized build.

    This dict is what sweep manifests persist and what a warm start compares
    against; keep ``params`` to plain ints/floats/strings/bools so equality
    survives a JSON round trip.
    """
    return {
        "family": str(family),
        "version": builder_version(family),
        "params": {str(k): params[k] for k in sorted(params)},
        "case_revision": int(case_revision),
    }
