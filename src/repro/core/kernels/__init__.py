"""Vectorized protocol kernels — the single source of truth per protocol.

Each module in this package defines one protocol's state layout and one-round
transition on 2-D ``(trials, ...)`` numpy arrays.  The batched driver
(:func:`repro.core.batch.run_batch`) runs any number of trials on them at
once with row-compaction completion masking; a single run is a batch of
one.

Every kernel whose vertices store the rumor keeps one ``(trials, n)``
boolean informed array.  Each rule is stated once: the push and pull
directions of the call protocols in :mod:`~repro.core.kernels.vertex` (push,
pull and push-pull select directions; the hybrid reuses both), the visit rule
in :class:`~repro.core.kernels.visit_exchange.VisitRule`, walks and churn in
:mod:`~repro.core.kernels.agent`.  Before every round the call directions
choose, from the live frontier, between whole-row algebra (the dense tier)
and per-trial frontier and uninformed lists (the sparse tier), which are
bit-identical.

``KERNEL_REGISTRY`` maps every protocol name to its kernel class; it is the
registry of the protocols this package simulates.
"""

from __future__ import annotations

from .base import BatchKernel, NeighborSampler, batch_generator
from .hybrid import HybridKernel
from .meet_exchange import MeetExchangeKernel
from .pull import PullKernel
from .push import PushKernel
from .push_pull import PushPullKernel
from .visit_exchange import VisitExchangeKernel

__all__ = [
    "BatchKernel",
    "NeighborSampler",
    "batch_generator",
    "KERNEL_REGISTRY",
    "get_kernel_class",
    "PushKernel",
    "PullKernel",
    "PushPullKernel",
    "VisitExchangeKernel",
    "MeetExchangeKernel",
    "HybridKernel",
]

#: Mapping from protocol name to its kernel class.
KERNEL_REGISTRY = {
    PushKernel.name: PushKernel,
    PullKernel.name: PullKernel,
    PushPullKernel.name: PushPullKernel,
    VisitExchangeKernel.name: VisitExchangeKernel,
    MeetExchangeKernel.name: MeetExchangeKernel,
    HybridKernel.name: HybridKernel,
}


def get_kernel_class(name: str):
    """Return the kernel class for a protocol name, raising for unknown names."""
    try:
        return KERNEL_REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(KERNEL_REGISTRY))
        raise ValueError(
            f"unknown protocol {name!r}; known protocols: {known}"
        ) from exc
