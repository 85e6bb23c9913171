"""Named counters, gauges, and histograms with snapshot/report export.

The registry is the aggregation side of the telemetry layer: span
tracing (:mod:`repro.telemetry.tracer`) answers *where did this one call
spend its time*, the metrics registry answers *how much work happened
overall* — rows per operator, cache hits, census computations, EF
positions explored. Metrics are cheap enough to update unconditionally,
but instrumented call sites still guard with
:func:`repro.telemetry.tracer.is_enabled` so the disabled path does no
dictionary lookups at all.

Counter/gauge updates are single bytecode-level ``+=``/assignments and
histogram observation appends to a list, so concurrent use from multiple
threads is safe under CPython's GIL for the accuracy telemetry needs;
metric *creation* is guarded by a lock.

**Labels (telemetry v2).** Every get-or-create accepts keyword labels
(``counter("server.requests", tenant="acme", outcome="ok")``), keyed in
the registry as ``name{k="v",...}`` with keys sorted — the same identity
Prometheus uses, so the text exposition (:mod:`repro.telemetry
.prometheus`) is a direct rendering. Cardinality is bounded: each base
name admits at most :data:`MAX_LABEL_SETS` distinct label sets, after
which new combinations collapse into a single ``{overflow="true"}``
series per base name — a hostile tenant id can't grow the registry
without bound.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MAX_LABEL_SETS",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "labeled_key",
    "metrics_report",
    "metrics_snapshot",
    "reset_metrics",
]

#: Distinct label sets admitted per base metric name before new
#: combinations collapse into the ``{overflow="true"}`` series.
MAX_LABEL_SETS = 64

#: The label set every over-cardinality observation lands in.
OVERFLOW_LABELS = {"overflow": "true"}


def labeled_key(name: str, labels: dict[str, str] | None) -> str:
    """The registry key for ``name`` + ``labels``: ``name{k="v",...}``,
    keys sorted so the same label set always maps to the same series."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "base_name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.base_name = name
        self.labels: dict[str, str] = dict(labels) if labels else {}
        self.name = labeled_key(name, self.labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A named value that can move both ways (e.g. current cache size)."""

    __slots__ = ("name", "base_name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.base_name = name
        self.labels: dict[str, str] = dict(labels) if labels else {}
        self.name = labeled_key(name, self.labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A named distribution: exact count/sum/min/max plus a sample.

    The sample is a uniform **reservoir** (Vitter's Algorithm R) of at
    most :data:`SAMPLE_LIMIT` observations: once full, each new
    observation replaces a random slot with probability
    ``SAMPLE_LIMIT / count``, so percentiles keep tracking the whole
    stream instead of freezing on the first 65536 observations (the
    warm-up traffic of a long-running server). The replacement RNG is
    seeded from the metric name, so a replayed workload reproduces the
    same percentiles bit-for-bit; it is made on the first replacement,
    so a histogram that never fills its sample holds none (a
    ``random.Random`` is about 2.5 KB). Aggregate moments (count/sum/min/max)
    stay exact regardless. Percentiles use the nearest-rank definition,
    so e.g. ``percentile(50)`` of 1..100 is 50.
    """

    SAMPLE_LIMIT = 65536

    __slots__ = ("name", "base_name", "labels", "count", "total", "min", "max",
                 "_sample", "_rng")

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.base_name = name
        self.labels: dict[str, str] = dict(labels) if labels else {}
        self.name = labeled_key(name, self.labels)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._sample: list[float] = []
        self._rng: random.Random | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._sample) < self.SAMPLE_LIMIT:
            self._sample.append(value)
        else:
            if self._rng is None:
                # str seeding hashes with SHA-512, not PYTHONHASHSEED, so
                # the reservoir is deterministic across interpreter runs.
                self._rng = random.Random(self.name)
            slot = self._rng.randrange(self.count)
            if slot < self.SAMPLE_LIMIT:
                self._sample[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained sample."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        rank = math.ceil(p / 100.0 * len(ordered))
        return ordered[rank - 1]

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """A namespace of metrics, created on first use.

    ``counter``/``gauge``/``histogram`` are get-or-create; asking for an
    existing name with a different kind raises ``TypeError`` (one name,
    one meaning). Keyword labels select a distinct series under the same
    base name, bounded at :data:`MAX_LABEL_SETS` sets per name (overflow
    collapses into ``{overflow="true"}``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._label_sets: dict[str, int] = {}

    def _get_or_create(self, name: str, kind: type, labels: dict[str, str]):
        key = labeled_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    if labels and self._label_sets.get(name, 0) >= MAX_LABEL_SETS:
                        return self._overflow_series(name, kind)
                    metric = kind(name, labels)
                    self._metrics[key] = metric
                    if labels:
                        self._label_sets[name] = self._label_sets.get(name, 0) + 1
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {key!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def _overflow_series(self, name: str, kind: type):
        """The ``{overflow="true"}`` sink series (lock already held)."""
        key = labeled_key(name, OVERFLOW_LABELS)
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name, dict(OVERFLOW_LABELS))
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(name, Counter, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(name, Gauge, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get_or_create(name, Histogram, labels)

    def metrics(self) -> tuple[Counter | Gauge | Histogram, ...]:
        """Every registered metric, sorted by (labeled) name."""
        return tuple(self._metrics[key] for key in sorted(self._metrics))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Everything as a JSON-serializable dict, names sorted."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def report(self) -> str:
        """A human-readable text report of every registered metric."""
        snap = self.snapshot()
        lines = ["=== telemetry metrics ==="]
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(name) for name in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name.ljust(width)}  {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(name) for name in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name.ljust(width)}  {value}")
        if snap["histograms"]:
            lines.append("histograms:")
            for name, summary in snap["histograms"].items():
                if summary["count"]:
                    lines.append(
                        f"  {name}  count={summary['count']} mean={summary['mean']:.3f} "
                        f"p50={summary['p50']:.3f} p95={summary['p95']:.3f} "
                        f"max={summary['max']:.3f}"
                    )
                else:
                    lines.append(f"  {name}  count=0")
        if len(lines) == 1:
            lines.append("(no metrics recorded)")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._label_sets.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


#: The process-wide default registry used by all built-in instrumentation.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: str) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels: str) -> Histogram:
    return REGISTRY.histogram(name, **labels)


def metrics_snapshot() -> dict[str, dict[str, Any]]:
    return REGISTRY.snapshot()


def metrics_report() -> str:
    return REGISTRY.report()


def reset_metrics() -> None:
    REGISTRY.reset()
