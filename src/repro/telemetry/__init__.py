"""Observability for the toolbox: span tracing + a metrics registry.

The telemetry layer (S14) makes the engine's normalize→stats→plan→
execute pipeline, the Theorem 3.11 census fast path, and the EF game
search *visible*, the way Kazana–Segoufin and Kuske–Schweikardt report
per-phase costs instead of one opaque total:

* :mod:`repro.telemetry.tracer` — nested, timed spans with attributes,
  thread-local stacks, a context-manager/decorator API;
* :mod:`repro.telemetry.metrics` — named counters, gauges, and
  histograms (labeled, bounded-cardinality) with JSON snapshot and
  text report exports;
* :mod:`repro.telemetry.context` — per-request :class:`TraceContext`
  (trace id, sampling decision) with scoped span stacks (telemetry v2,
  S19);
* :mod:`repro.telemetry.prometheus` — text exposition 0.0.4 plus the
  strict parser CI scrapes with;
* :mod:`repro.telemetry.logs` — the structured JSON access /
  slow-query log.

**Off by default.** While disabled, :func:`span` returns a shared no-op
singleton (no allocation) and instrumented call sites skip their metric
updates entirely, so the production path pays one boolean check per
instrumentation point. Enable with :func:`enable`, the
``REPRO_TELEMETRY=1`` environment variable, or the scoped
:func:`capture` helper:

>>> from repro import telemetry
>>> with telemetry.capture() as registry:
...     telemetry.counter("demo.events").inc(3)
...     with telemetry.span("demo.work") as sp:
...         _ = sp.set("items", 3)
>>> registry.snapshot()["counters"]["demo.events"]
3
>>> telemetry.is_enabled()
False
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.context import (
    TraceContext,
    current_trace,
    current_trace_id,
    mint,
    sampling_decision,
    trace_scope,
)
from repro.telemetry.logs import AccessLog, open_access_log
from repro.telemetry.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_report,
    metrics_snapshot,
    reset_metrics,
)
from repro.telemetry.prometheus import parse_exposition, render_exposition
from repro.telemetry.tracer import (
    Span,
    current_span,
    disable,
    drain_spans,
    enable,
    finished_spans,
    is_enabled,
    is_recording,
    reset_tracer,
    span,
    traced,
)

__all__ = [
    "AccessLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "TraceContext",
    "capture",
    "counter",
    "current_span",
    "current_trace",
    "current_trace_id",
    "disable",
    "drain_spans",
    "enable",
    "finished_spans",
    "gauge",
    "histogram",
    "is_enabled",
    "is_recording",
    "metrics_report",
    "metrics_snapshot",
    "mint",
    "open_access_log",
    "parse_exposition",
    "render_exposition",
    "reset",
    "reset_metrics",
    "reset_tracer",
    "sampling_decision",
    "span",
    "trace_scope",
    "traced",
]


def reset() -> None:
    """Clear all recorded telemetry: metrics and finished spans."""
    reset_metrics()
    reset_tracer()


@contextmanager
def capture():
    """Enable telemetry for a block, starting from a clean registry.

    Yields the default :data:`REGISTRY`; on exit the previous
    enabled/disabled state is restored (recorded data is kept for
    inspection).
    """
    was_enabled = is_enabled()
    reset()
    enable()
    try:
        yield REGISTRY
    finally:
        if not was_enabled:
            disable()
