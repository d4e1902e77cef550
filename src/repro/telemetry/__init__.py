"""Unified telemetry: metrics registry, trace spans, structured logging.

Three dependency-free, independently usable pieces:

* :mod:`repro.telemetry.metrics` — thread-safe ``Counter`` / ``Gauge`` /
  ``Histogram`` primitives with labels, a process-global default registry,
  and Prometheus text rendering (served by the store service's
  ``GET /metrics``);
* :mod:`repro.telemetry.tracing` — ``span("phase", **attrs)`` context
  managers appending JSONL trace files when ``REPRO_TRACE`` names a
  directory, plus the readers behind ``repro trace summary`` and
  ``repro trace export --chrome``;
* :mod:`repro.telemetry.logs` — ``get_logger()`` wiring stdlib logging with
  key=value formatting behind ``REPRO_LOG``.

Invariant shared by all three: telemetry observes, it never participates.
Store keys, seed derivation and kernel trajectories are bit-identical with
telemetry enabled or disabled.
"""

from .logs import LOG_ENV_VAR, get_logger, kv
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    default_registry,
)
from .tracing import (
    TRACE_ENV_VAR,
    chrome_trace,
    read_events,
    span,
    summarize_events,
    trace_enabled,
    trace_event,
    trace_files,
)

__all__ = [
    "LOG_ENV_VAR",
    "TRACE_ENV_VAR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "chrome_trace",
    "default_registry",
    "get_logger",
    "kv",
    "read_events",
    "span",
    "summarize_events",
    "trace_enabled",
    "trace_event",
    "trace_files",
]
