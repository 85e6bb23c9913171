"""A lightweight span tracer: nested, timed, attributed spans.

Tracing is **off by default** and costs almost nothing while off:
:func:`span` returns a shared no-op singleton (no allocation, no
timestamp), so instrumentation can stay inline in hot paths. Turn it on
with :func:`enable` (or by exporting ``REPRO_TELEMETRY=1`` before
import) and every ``with span(...)`` block becomes a real
:class:`Span` — pushed on a *thread-local* stack, timed with
``perf_counter``, nested under its parent, and collected into a bounded
buffer of finished root spans once the outermost block exits.

The tracer records structure and durations; scalar context goes into
span attributes via :meth:`Span.set` (a no-op while disabled, so call
sites never need their own enabled checks just to attach attributes —
though they should guard *expensive* attribute computation with
:func:`is_enabled`).

**Request scoping (telemetry v2).**  The global switch is no longer the
only way to record: :func:`push_scope`/:func:`pop_scope` (driven by
:class:`repro.telemetry.context.trace_scope`) install a *per-request*
stack with its own recording decision, so a sampled server request
records spans even with ``REPRO_TELEMETRY`` unset, an unsampled one
stays free, and a request that dies mid-span can never leak open spans
onto the reused handler thread — the scope's stack is discarded on exit
and the previous one restored.  Every recorded span carries the scope's
``trace_id`` plus its own ``span_id``, and serializes with
:meth:`Span.to_dict` (what the server attaches to ``explain`` responses).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import deque
from collections.abc import Callable
from typing import Any

__all__ = [
    "Span",
    "current_span",
    "disable",
    "drain_spans",
    "enable",
    "finished_spans",
    "is_enabled",
    "is_recording",
    "open_root",
    "pop_scope",
    "push_scope",
    "reset_tracer",
    "span",
    "traced",
]

#: How many finished *root* spans the tracer retains (oldest dropped).
TRACE_BUFFER_SIZE = 1024

_enabled = False
_local = threading.local()
_finished: deque[Span] = deque(maxlen=TRACE_BUFFER_SIZE)
_finished_lock = threading.Lock()


def enable() -> None:
    """Turn tracing on process-wide (thread stacks stay per-thread)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracing off; in-flight spans still finish cleanly."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether telemetry is currently on (shared with the metrics layer)."""
    return _enabled


def is_recording() -> bool:
    """Whether a span created *now on this thread* would be recorded.

    Inside a request scope the scope's sampling decision wins (in both
    directions); outside, the process-wide switch decides.
    """
    recording = getattr(_local, "recording", None)
    return _enabled if recording is None else recording


#: Monotonic span-id source: cheap, unique within the process, rendered
#: as 8 hex chars to match wire span ids.
_span_ids = itertools.count(1)


def _stack() -> list[Span]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


# -- request scoping ----------------------------------------------------------


def push_scope(
    trace_id: str | None, recording: bool, roots: list["Span"] | None = None
) -> tuple:
    """Swap in a fresh, request-scoped tracer state on this thread.

    Returns an opaque token holding the previous state; hand it back to
    :func:`pop_scope`.  ``roots`` (if given) additionally collects the
    root spans finished while the scope is active — the request's span
    trees, available without scanning the global buffer.
    """
    token = (
        getattr(_local, "stack", None),
        getattr(_local, "trace_id", None),
        getattr(_local, "recording", None),
        getattr(_local, "roots", None),
    )
    _local.stack = []
    _local.trace_id = trace_id
    _local.recording = recording
    _local.roots = roots
    return token


def pop_scope(token: tuple) -> int:
    """Restore the pre-scope tracer state; returns how many spans the
    scope abandoned still-open (non-zero means an exception unwound past
    a ``with span(...)`` block — the request died mid-span, and without
    scoping those spans would have re-parented the thread's next trace)."""
    orphans = len(getattr(_local, "stack", None) or ())
    _local.stack, _local.trace_id, _local.recording, _local.roots = token
    return orphans


class Span:
    """One timed region: a name, key/value attributes, and child spans.

    Spans are their own context managers; entering pushes onto the
    calling thread's span stack, exiting pops and attaches the span to
    its parent (or to the finished-roots buffer if it has none).
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_s",
        "end_s",
        "trace_id",
        "span_id",
    )

    def __init__(self, name: str, attributes: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.children: list[Span] = []
        self.start_s = 0.0
        self.end_s = 0.0
        self.trace_id: str | None = None
        self.span_id = f"{next(_span_ids):08x}"

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        self.trace_id = getattr(_local, "trace_id", None)
        _stack().append(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = time.perf_counter()
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            roots = getattr(_local, "roots", None)
            if roots is not None:
                roots.append(self)
            with _finished_lock:
                _finished.append(self)
        return False

    # -- data access --------------------------------------------------------

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; returns ``self`` for chaining."""
        self.attributes[key] = value
        return self

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1000.0

    def walk(self):
        """Yield this span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the subtree.

        Durations only — ``perf_counter`` timestamps mean nothing outside
        this process.  A still-open span reports the duration accumulated
        so far.
        """
        end = self.end_s if self.end_s else time.perf_counter()
        duration_ms = max(end - self.start_s, 0.0) * 1000.0 if self.start_s else 0.0
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "duration_ms": duration_ms,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """The span subtree as an indented text block."""
        pad = "  " * indent
        attrs = "".join(f" {k}={v}" for k, v in self.attributes.items())
        lines = [f"{pad}{self.name}  {self.duration_ms:.3f}ms{attrs}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f}ms, "
            f"children={len(self.children)}, attrs={self.attributes!r})"
        )


class _NoopSpan:
    """The shared disabled-mode span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def __repr__(self) -> str:
        return "NoopSpan()"


NOOP_SPAN = _NoopSpan()


def span(name: str, **attributes: Any) -> Span | _NoopSpan:
    """A context-managed span, or the shared no-op when tracing is off.

    Hot call sites should avoid keyword attributes (the kwargs dict is
    built even while disabled) and use :meth:`Span.set` inside the block
    instead.
    """
    recording = getattr(_local, "recording", None)
    if not (_enabled if recording is None else recording):
        return NOOP_SPAN
    return Span(name, attributes)


def traced(name: str | None = None) -> Callable:
    """Decorator form: trace every call of the function as one span."""

    def decorate(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not is_recording():
                return fn(*args, **kwargs)
            with Span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def current_span() -> Span | None:
    """The innermost open span on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


def open_root() -> Span | None:
    """The outermost *open* span on this thread (the live request root)."""
    stack = _stack()
    return stack[0] if stack else None


def finished_spans() -> tuple[Span, ...]:
    """Finished root spans, oldest first (bounded buffer)."""
    with _finished_lock:
        return tuple(_finished)


def drain_spans() -> tuple[Span, ...]:
    """Return finished root spans and clear the buffer."""
    with _finished_lock:
        spans = tuple(_finished)
        _finished.clear()
    return spans


def reset_tracer() -> None:
    """Drop finished spans and this thread's open-span stack."""
    with _finished_lock:
        _finished.clear()
    _local.stack = []


if os.environ.get("REPRO_TELEMETRY", "").strip().lower() in ("1", "true", "yes", "on"):
    _enabled = True
