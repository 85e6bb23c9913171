"""Request-scoped trace identity: the context half of telemetry v2 (S19).

PR 2's tracer answers *where did this call spend its time*; this module
answers *which request was that* — the piece a multi-tenant server needs
before span trees, degradation events, and HTTP outcomes can be joined
into one story.  A :class:`TraceContext` is minted once per request
(HTTP layer or service entry point), carries a ``trace_id``, the id of
the request's root span, and the **sampling decision**, and is installed
on the handling thread with :func:`trace_scope`.

Two properties the server stack relies on:

* **Scoped, not global.** :func:`trace_scope` swaps in a *fresh* span
  stack for the duration of the request and restores the previous one on
  exit — even if the request body raised mid-span.  A reused
  ``ThreadingHTTPServer`` handler thread therefore can never re-parent
  the next tenant's spans under a leaked span from the previous request
  (the PR 2 thread-local stack had exactly this failure mode).
* **Deterministic sampling.** The decision is a pure function of
  ``(trace_id, rate)`` — :func:`sampling_decision` hashes the trace id —
  so a client replaying a trace id reproduces the sampling outcome, and
  always-on tracing can run at a fixed fraction of requests with zero
  coordination.
"""

from __future__ import annotations

import os
import re
import threading
import zlib
from dataclasses import dataclass

from repro.telemetry import tracer as _tracer

__all__ = [
    "TraceContext",
    "current_trace",
    "current_trace_id",
    "mint",
    "new_span_id",
    "new_trace_id",
    "sampling_decision",
    "trace_scope",
]

#: Accepted wire trace ids: lowercase hex, 1–64 chars (W3C-traceparent
#: compatible without requiring its exact width).  Anything else is
#: ignored and a fresh id is minted — lenient by design, so a sloppy
#: client still gets a traced response instead of a 400.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{1,64}$")

_local = threading.local()


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span id (32 random bits)."""
    return os.urandom(4).hex()


def sampling_decision(trace_id: str, rate: float) -> bool:
    """Deterministic per-trace sampling: hash the id into [0, 1).

    ``rate`` ≥ 1 samples everything, ≤ 0 nothing; in between, the same
    trace id always lands in the same bucket (replay-stable).  The
    bucket comes from CRC-32 — sub-microsecond on the per-request hot
    path, and uniform enough over random hex ids for a sampling knob
    (this is not a security boundary).
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    bucket = zlib.crc32(trace_id.encode()) & 0xFFFFFFFF
    return bucket / float(0x1_0000_0000) < rate


@dataclass(frozen=True)
class TraceContext:
    """One request's trace identity: ids plus the sampling decision.

    ``sampled`` decides whether spans are *recorded* inside this
    request's :func:`trace_scope`; the trace id is echoed on the wire
    either way, so clients can always correlate responses — an unsampled
    request is identified, just not profiled.
    """

    trace_id: str
    span_id: str
    sampled: bool

    def to_wire(self) -> str:
        return self.trace_id


def normalize_trace_id(raw: object) -> str | None:
    """A valid wire trace id (lowercased), or ``None`` to mint fresh."""
    if not isinstance(raw, str):
        return None
    candidate = raw.strip().lower()
    if _TRACE_ID_RE.match(candidate):
        return candidate
    return None


def mint(trace_id: object = None, rate: float = 1.0) -> TraceContext:
    """Mint the context for one request.

    ``trace_id`` may come from the client (request body field or
    ``X-Trace-Id`` header); invalid or missing ids get a fresh one.  The
    sampling decision is derived deterministically from the final id.
    """
    accepted = normalize_trace_id(trace_id)
    final = accepted if accepted is not None else new_trace_id()
    return TraceContext(
        trace_id=final,
        span_id=new_span_id(),
        sampled=sampling_decision(final, rate),
    )


def current_trace() -> TraceContext | None:
    """The context installed on this thread, if any."""
    stack = getattr(_local, "contexts", None)
    return stack[-1] if stack else None


def current_trace_id() -> str | None:
    context = current_trace()
    return context.trace_id if context is not None else None


class trace_scope:
    """Install a :class:`TraceContext` on this thread for one request.

    Entering swaps in a fresh tracer span stack (recording iff
    ``context.sampled``); exiting restores the previous stack and
    context **unconditionally**, abandoning any spans an exception left
    open — the leak fix the reused-handler-thread scenario needs.  The
    scope collects the root spans finished inside it (:attr:`roots`),
    which is what the server attaches to ``explain`` responses.
    """

    __slots__ = ("context", "_tracer_token", "roots", "orphaned_spans")

    def __init__(self, context: TraceContext) -> None:
        self.context = context
        self._tracer_token: object | None = None
        self.roots: list[_tracer.Span] = []
        self.orphaned_spans = 0

    def __enter__(self) -> "trace_scope":
        contexts = getattr(_local, "contexts", None)
        if contexts is None:
            contexts = []
            _local.contexts = contexts
        contexts.append(self.context)
        self._tracer_token = _tracer.push_scope(
            trace_id=self.context.trace_id,
            recording=self.context.sampled,
            roots=self.roots,
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.orphaned_spans = _tracer.pop_scope(self._tracer_token)
        contexts = getattr(_local, "contexts", None)
        if contexts:
            contexts.pop()
        return False
