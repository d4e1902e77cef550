"""The shared spec-string grammar: one surface for every resolvable axis.

Historically each configuration axis grew its own spelling: dynamics specs
were ``"<kind>:key=value,key=value"`` strings parsed inside
:mod:`repro.graphs.dynamic`, store designators were paths-or-URLs, and graph
sources were hard-coded CLI choices.  The scenario layer
(:mod:`repro.scenarios`) unifies them: **every** axis — graph source,
dynamics schedule, protocol — accepts either a spec dict ``{"kind": <name>,
**params}`` or the equivalent compact string ``"<kind>:key=value,..."``,
and this module is the single implementation of that grammar.

Grammar of the string form::

    spec        := kind [":" item ("," item)*]
    item        := key "=" value
    value       := int | float | "true" | "false" | bare string

Values are coerced in that order (ints before floats before strings), which
matches how the dynamics CLI strings have always parsed.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["SpecError", "coerce_scalar", "parse_spec_string"]


class SpecError(ValueError):
    """A spec dict or spec string does not conform to the shared grammar."""


def coerce_scalar(text: str) -> Any:
    """Parse one spec value: int, float, bool, or the bare string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_spec_string(text: str) -> Dict[str, Any]:
    """Parse the compact form ``kind:key=value,key=value`` into a spec dict.

    The result always carries a ``"kind"`` entry (the part before the first
    ``:``); the remaining items become keyword parameters with
    :func:`coerce_scalar`-typed values.  Raises :class:`SpecError` on a
    malformed item or an empty kind.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise SpecError(f"spec string {text!r} has no kind before the ':'")
    spec: Dict[str, Any] = {"kind": kind}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise SpecError(
                    f"malformed spec item {item!r} (expected key=value)"
                )
            spec[key.strip()] = coerce_scalar(value.strip())
    return spec

