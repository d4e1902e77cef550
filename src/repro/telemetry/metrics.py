"""Dependency-free metrics primitives with Prometheus text rendering.

The registry holds three metric kinds — :class:`Counter`, :class:`Gauge` and
:class:`Histogram` — each optionally labeled.  A labeled metric is a family of
independent series keyed by the tuple of label values; every series carries
its own lock, so concurrent increments from the HTTP service's handler
threads never race.  :meth:`MetricsRegistry.render` emits the Prometheus text
exposition format (version 0.0.4), which is what the store service's
``GET /metrics`` endpoint serves.

Two registries matter in practice:

* the **process-global default registry** (:func:`default_registry`), used by
  client-side code — :class:`~repro.store.backends.remote.RemoteBackend`
  retry accounting, worker fleet counters — whose values reach a hub only
  when a worker pushes a snapshot over the authenticated write path;
* a **per-server registry** owned by each ``_StoreHTTPServer``, so that two
  services in one process (a common shape in the tests) never see each
  other's request counts.

Metric values are deliberately outside every store key: telemetry must never
change what is computed, only record it.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "default_registry",
]

#: Distinct label-value combinations one metric may hold.  Beyond the cap,
#: new combinations collapse into the reserved ``<other>`` series so a
#: runaway label (worker names, junk routes) cannot grow the registry — and
#: the ``/metrics`` response — without bound.
DEFAULT_MAX_SERIES = 512

#: Reserved label value absorbing series beyond :data:`DEFAULT_MAX_SERIES`.
OVERFLOW_LABEL = "<other>"

#: Default histogram buckets, in seconds: tuned for request/phase latencies
#: from sub-millisecond cache hits up to multi-second kernel runs.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class MetricError(ValueError):
    """Invalid metric registration or label usage."""


def _check_name(name: str) -> None:
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise MetricError(f"invalid metric or label name: {name!r}")
    for char in name:
        if not (char.isalnum() or char in "_:"):
            raise MetricError(f"invalid metric or label name: {name!r}")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


class CounterSeries:
    """One monotonically increasing series of a :class:`Counter`."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeSeries:
    """One settable series of a :class:`Gauge`."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramSeries:
    """One bucketed series of a :class:`Histogram`.

    Buckets store per-bucket (non-cumulative) counts; the cumulative ``le``
    form Prometheus expects is produced at render time.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class _Metric:
    """Shared machinery: label handling, cardinality guard, series map."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        _check_name(name)
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        for label in self.label_names:
            _check_name(label)
        self.max_series = max_series
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], object] = {}

    def _make_series(self):
        raise NotImplementedError

    def labels(self, **labels):
        """The series for one label-value combination (created on first use)."""
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"metric {self.name} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        values = tuple(str(labels[name]) for name in self.label_names)
        return self._series_for(values)

    def _series_for(self, values: Tuple[str, ...]):
        with self._lock:
            series = self._series.get(values)
            if series is None:
                if len(self._series) >= self.max_series:
                    values = (OVERFLOW_LABEL,) * len(self.label_names)
                    series = self._series.get(values)
                if series is None:
                    series = self._make_series()
                    self._series[values] = series
            return series

    def _unlabeled(self):
        if self.label_names:
            raise MetricError(
                f"metric {self.name} needs labels {list(self.label_names)}"
            )
        return self._series_for(())

    def series_items(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Snapshot of ``(label_values, series)`` pairs, insertion-ordered."""
        with self._lock:
            return list(self._series.items())

    def _render_labels(self, values: Tuple[str, ...], extra: str = "") -> str:
        parts = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.label_names, values)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for values, series in self.series_items():
            lines.extend(self._render_series(values, series))
        return lines

    def _render_series(self, values, series) -> List[str]:
        return [f"{self.name}{self._render_labels(values)} {_format_value(series.value)}"]


class Counter(_Metric):
    kind = "counter"

    def _make_series(self) -> CounterSeries:
        return CounterSeries()

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    @property
    def value(self) -> float:
        """Sum over every series (the single series when unlabeled)."""
        return sum(series.value for _, series in self.series_items())


class Gauge(_Metric):
    kind = "gauge"

    def _make_series(self) -> GaugeSeries:
        return GaugeSeries()

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabeled().dec(amount)

    @property
    def value(self) -> float:
        return sum(series.value for _, series in self.series_items())


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, help, labels, max_series=max_series)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricError("histograms need at least one bucket bound")

    def _make_series(self) -> HistogramSeries:
        return HistogramSeries(self.buckets)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)

    def _render_series(self, values, series) -> List[str]:
        counts, total, count = series.snapshot()
        lines = []
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            extra = f'le="{_format_value(bound)}"'
            lines.append(
                f"{self.name}_bucket{self._render_labels(values, extra)} {cumulative}"
            )
        inf_label = 'le="+Inf"'
        lines.append(
            f"{self.name}_bucket{self._render_labels(values, inf_label)} {count}"
        )
        lines.append(
            f"{self.name}_sum{self._render_labels(values)} {_format_value(total)}"
        )
        lines.append(f"{self.name}_count{self._render_labels(values)} {count}")
        return lines


class MetricsRegistry:
    """A named collection of metrics with get-or-create registration."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs):
        labels = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != labels:
                    raise MetricError(
                        f"metric {name} already registered as {existing.kind} "
                        f"with labels {list(existing.label_names)}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels, max_series=max_series)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels, max_series=max_series)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets, max_series=max_series
        )

    def collect(self) -> List[_Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda metric: metric.name)

    def counter_value(self, name: str) -> float:
        """Current total of a counter, ``0.0`` when it was never registered.

        Reading through this accessor never creates the metric, so callers
        can take baselines and deltas without polluting the registry.
        """
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        return float(metric.value)

    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every metric."""
        lines: List[str] = []
        for metric in self.collect():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{series_name: value}`` view for JSON payloads.

        Histograms contribute ``<name>_count`` and ``<name>_sum`` entries;
        labeled series append a ``{k=v,...}`` suffix.
        """
        flat: Dict[str, float] = {}
        for metric in self.collect():
            for values, series in metric.series_items():
                suffix = ""
                if values:
                    pairs = ",".join(
                        f"{k}={v}" for k, v in zip(metric.label_names, values)
                    )
                    suffix = "{" + pairs + "}"
                if isinstance(series, HistogramSeries):
                    _, total, count = series.snapshot()
                    flat[f"{metric.name}_count{suffix}"] = float(count)
                    flat[f"{metric.name}_sum{suffix}"] = total
                else:
                    flat[f"{metric.name}{suffix}"] = float(series.value)
        return flat


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry used by client-side instrumentation."""
    return _DEFAULT_REGISTRY
