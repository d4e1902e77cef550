"""Canonical cell keys for the content-addressed result store.

A *cell* — all trials of one protocol configuration on one graph instance —
is a pure function of its inputs: the per-trial SFC64 streams are derived
from stable components, the kernels consume them deterministically, and the
dynamic-topology schedules are pure functions of ``(graph, round_index)``.
The store therefore caches cells *exactly*: two invocations with the same
key produce bit-identical :class:`~repro.core.results.TrialSet` records, so
a cache hit is indistinguishable from a recompute.

The key is a SHA-256 over the canonical JSON of the full cell description:

* the **graph fingerprint** — a hash of the CSR arrays (``indptr`` +
  ``indices``) and the vertex/edge counts, i.e. the exact structure the
  kernels sample from, independent of how it was built or labelled;
* the **protocol spec** — protocol name plus its keyword arguments with
  dict keys sorted, tuples normalized to lists, numpy scalars unwrapped and
  ``-0.0`` folded into ``0.0`` (``canonical_json``);
* the **dynamics spec** — the schedule's round-trippable ``spec()`` dict
  (``None`` when the topology is static);
* the exact **per-trial seed list**, the trial count, the round budget and
  whether per-round histories are recorded;
* :data:`SEMANTICS_VERSION`, bumped whenever a kernel's random-stream
  consumption changes so stale artifacts can never masquerade as current
  results.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..core.results import _json_safe
from ..graphs.dynamic import _resolve_dynamics
from ..graphs.graph import Graph

__all__ = [
    "STORE_FORMAT_VERSION",
    "SEMANTICS_VERSION",
    "canonical_json",
    "cell_key",
    "document_cell_payload",
    "dynamics_spec",
    "graph_fingerprint",
    "trial_cell_payload",
]

#: On-disk artifact layout version (NPZ member names, sidecar schema).  Bump
#: when the serialization format changes; old objects are then unreadable and
#: should be garbage-collected.
STORE_FORMAT_VERSION = 1

#: Version of the *simulation semantics* baked into cached results: how the
#: kernels consume their random streams, how seeds are derived, how dynamics
#: masks are applied — and what the cell payload itself hashes.  Bump on any
#: change that alters the bits a cell produces for the same spec — every
#: existing key then misses, which is the correct (if expensive) behaviour.
#:
#: Version history:
#:
#: * ``1`` — original payload; the graph fingerprint mixed in ``graph.name``
#:   and the payload carried the name alongside the fingerprint.
#: * ``2`` — the fingerprint is purely structural (CSR arrays + counts, no
#:   name) and the payload's graph record drops the display name, honouring
#:   the documented "same structure, same fingerprint" contract.
SEMANTICS_VERSION = 2


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to canonical JSON: sorted keys, normalized scalars.

    The output is byte-stable across processes and platforms for any nesting
    of dicts, lists/tuples, numpy arrays/scalars, strings, ints, floats,
    bools and ``None`` — which is exactly the vocabulary of protocol kwargs
    and dynamics specs.  Normalization is the strict-float mode of the
    shared :func:`repro.core.results._json_safe` walker: dict keys are
    sorted, tuples listified, numpy types unwrapped, ``-0.0`` folded into
    ``0.0``, and NaN/infinity rejected (``ValueError``).  Anything else
    raises ``TypeError`` rather than hashing an unstable ``repr``.
    """
    return json.dumps(
        _json_safe(value, strict_floats=True),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def graph_fingerprint(graph: Graph) -> str:
    """SHA-256 fingerprint of a graph's exact CSR structure (hex digest).

    The contract is **structural identity**: the hash covers the vertex and
    edge counts plus the CSR adjacency arrays (``indptr`` + ``indices``) and
    nothing else, so two differently-described — or differently *named* —
    constructions of the same instance share a fingerprint, and any
    structural change, however the graph was produced, yields a new one.
    The display name is metadata, not structure; it still travels in artifact
    sidecars for ``store ls``, it just no longer perturbs addressing.

    A graph-like object carrying a non-``None`` ``trusted_fingerprint``
    attribute (see :class:`~repro.store.orchestrator.GraphStub`) short-cuts
    the hash entirely: that is how a manifest-trusted warm start resolves
    cell keys without ever building the CSR arrays.
    """
    trusted = getattr(graph, "trusted_fingerprint", None)
    if trusted is not None:
        return str(trusted)
    digest = hashlib.sha256()
    digest.update(b"repro-graph-v2\0")
    digest.update(np.int64(graph.num_vertices).tobytes())
    digest.update(np.int64(graph.num_edges).tobytes())
    digest.update(np.ascontiguousarray(graph.indptr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.indices, dtype=np.int64).tobytes())
    return digest.hexdigest()


def dynamics_spec(dynamics: Any) -> Optional[Dict[str, Any]]:
    """Canonical spec dict of a ``dynamics=`` value (None for static topology).

    Accepts everything :func:`repro.scenarios.resolve_dynamics` does —
    ``None``, a schedule instance, a spec dict or a CLI spec string — and
    returns the schedule's round-trippable ``spec()`` form, which is what the
    cell key hashes.
    """
    schedule = _resolve_dynamics(dynamics)
    return None if schedule is None else schedule.spec()


def trial_cell_payload(
    *,
    graph: Graph,
    source: int,
    protocol_name: str,
    protocol_kwargs: Optional[Dict[str, Any]] = None,
    dynamics: Any = None,
    seeds: Sequence[int],
    max_rounds: Optional[int] = None,
    record_history: bool = False,
) -> Dict[str, Any]:
    """Assemble the full, canonicalizable description of one cell.

    This is the store's source of truth for "what was run": hash it with
    :func:`cell_key` to address the cell's artifact, and persist it in the
    artifact's JSON sidecar so ``repro store info`` can explain any object.
    The returned payload is already in canonical normalized form (numpy
    scalars unwrapped, tuples listified, strict floats), so the bytes stored
    in the sidecar are exactly the bytes that were hashed and a numpy-typed
    protocol kwarg can never crash the sidecar write after the simulation
    has already run.
    """
    payload = {
        "format": STORE_FORMAT_VERSION,
        "semantics": SEMANTICS_VERSION,
        "graph": {
            "fingerprint": graph_fingerprint(graph),
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
        },
        "source": int(source),
        "protocol": {
            "name": protocol_name,
            "kwargs": dict(protocol_kwargs or {}),
        },
        "dynamics": dynamics_spec(dynamics),
        "seeds": [int(s) for s in seeds],
        "trials": len(seeds),
        "max_rounds": None if max_rounds is None else int(max_rounds),
        "record_history": bool(record_history),
        # "batched" pins existing cell keys: it names the one execution path.
        "backend": "batched",
    }
    return _json_safe(payload, strict_floats=True)


def document_cell_payload(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble the canonical description of a *document* cell.

    Document cells cache whole-experiment results that are not trial sets
    (the coupling and fairness experiments) under the same content-addressed
    machinery: ``kind`` names the experiment family, ``params`` its complete
    argument set.  Both version counters participate so a semantics bump
    invalidates cached documents exactly like trial-set cells.
    """
    payload = {
        "format": STORE_FORMAT_VERSION,
        "semantics": SEMANTICS_VERSION,
        "document": str(kind),
        "params": dict(params),
    }
    return _json_safe(payload, strict_floats=True)


def cell_key(payload: Dict[str, Any]) -> str:
    """SHA-256 hex key of a cell payload (see :func:`trial_cell_payload`)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
