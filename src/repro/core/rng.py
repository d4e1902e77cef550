"""Deterministic random-number management for simulations.

Every stochastic component in this package draws from a
:class:`numpy.random.Generator`.  Experiments need reproducibility across
processes and across trials, so a single experiment seed deterministically
derives (through a ``SeedSequence``) an independent seed for every (trial,
component) pair.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

__all__ = ["make_rng", "derive_seed"]

SeedLike = Union[int, None, np.random.SeedSequence, np.random.Generator]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like object.

    Passing an existing generator returns it unchanged, which lets library
    functions accept either a seed or a generator without caring which.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *components: Union[int, str]) -> int:
    """Deterministically derive a child seed from a base seed and labels.

    The derivation hashes the component labels into entropy for a
    ``SeedSequence`` so that, e.g., trial 7 of experiment "fig1a-star" always
    receives the same stream regardless of execution order.  String components
    are hashed with SHA-256 (not Python's built-in ``hash``, which is salted
    per process), so the derived seed is stable across runs and machines.
    """
    entropy = [int(base_seed) & 0xFFFFFFFF]
    for component in components:
        if isinstance(component, str):
            digest = hashlib.sha256(component.encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:4], "little"))
        else:
            entropy.append(int(component) & 0xFFFFFFFF)
    sequence = np.random.SeedSequence(entropy)
    return int(sequence.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)

