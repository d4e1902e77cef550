"""Pluggable storage backends for the content-addressed result store.

:class:`~repro.store.backends.base.StoreBackend` is the transport interface
(read/write/list/delete of objects + sidecars, sweep-journal lines) behind
:class:`~repro.store.ResultStore`; the two implementations are the
local-directory layout (:class:`LocalBackend`) and the HTTP client with a
read-through local cache (:class:`RemoteBackend`) that pairs with the
``repro store serve`` service of :mod:`repro.store.service`.

:func:`resolve_backend` maps a user-facing store designator — a filesystem
path or an ``http(s)://`` service URL, exactly the two forms ``REPRO_STORE``
accepts — onto the right backend.
"""

from __future__ import annotations

from typing import Any, Optional

from .base import (
    KEY_HEX_LENGTH,
    OBJECT_FRAME_MAGIC,
    StoreBackend,
    check_key,
    check_sweep_id,
    decode_object_frame,
    encode_object_frame,
)
from .local import LocalBackend
from .remote import CACHE_ENV_VAR, RemoteBackend, default_cache_root, is_store_url

__all__ = [
    "CACHE_ENV_VAR",
    "KEY_HEX_LENGTH",
    "LocalBackend",
    "OBJECT_FRAME_MAGIC",
    "RemoteBackend",
    "StoreBackend",
    "check_key",
    "check_sweep_id",
    "decode_object_frame",
    "default_cache_root",
    "encode_object_frame",
    "is_store_url",
    "resolve_backend",
]


def resolve_backend(designator: Any, *, cache: Optional[Any] = None) -> StoreBackend:
    """Turn a store designator (path or service URL) into a backend.

    ``cache`` only applies to URL designators and overrides where the remote
    backend's read-through cache lives (default: a per-URL directory under
    the user cache dir, or ``$REPRO_STORE_CACHE``).
    """
    if isinstance(designator, StoreBackend):
        return designator
    if is_store_url(designator):
        return RemoteBackend(designator, cache=cache)
    return LocalBackend(designator)
