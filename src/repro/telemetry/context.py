"""Request-scoped trace identity: the context half of telemetry v2 (S19).

PR 2's tracer answers *where did this call spend its time*; this module
answers *which request was that* — the piece a multi-tenant server needs
before span trees, degradation events, and HTTP outcomes can be joined
into one story.  A :class:`TraceContext` is minted once per request
(HTTP layer or service entry point), carries a ``trace_id`` and the
**sampling decision**, and is installed on the handling thread with
:class:`trace_scope`.

Two properties the server stack relies on:

* **Scoped, not global.** A :class:`trace_scope` *is* the tracer's state
  on its thread while it is installed (a
  :class:`~repro.telemetry.tracer.Scope`): its own span stack, trace id
  and sampling decision, and the roots finished inside it, which go to
  it alone, not to the process buffer.  Exiting puts the previous state
  back, even if the request body raised mid-span.  A server thread that
  serves one connection's requests in turn therefore can never re-parent
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
import zlib
from dataclasses import dataclass

from repro.telemetry import tracer as _tracer

__all__ = [
    "TraceContext",
    "current_trace",
    "current_trace_id",
    "mint",
    "new_trace_id",
    "sampling_decision",
    "trace_scope",
]

#: Accepted wire trace ids: lowercase hex, 1–64 chars (W3C-traceparent
#: compatible without requiring its exact width).  Anything else is
#: ignored and a fresh id is minted — lenient by design, so a sloppy
#: client still gets a traced response instead of a 400.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{1,64}$")


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


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
    """One request's trace identity: its id plus the sampling decision.

    ``sampled`` decides whether spans are *recorded* inside this
    request's :func:`trace_scope`; the trace id is echoed on the wire
    either way, so clients can always correlate responses — an unsampled
    request is identified, just not profiled.
    """

    trace_id: str
    sampled: bool


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
    return TraceContext(trace_id=final, sampled=sampling_decision(final, rate))


class trace_scope(_tracer.Scope):
    """One request's tracer state, built from its :class:`TraceContext`.

    Entering installs it as this thread's tracer state (recording iff
    ``context.sampled``); exiting restores the previous state
    **unconditionally**, abandoning any spans an exception left open —
    the leak fix the reused-handler-thread scenario needs.  The roots
    finished inside it are kept in :attr:`roots`, and only there: they
    are what the server attaches to ``explain`` responses.
    """

    __slots__ = ("context",)

    def __init__(self, context: TraceContext) -> None:
        super().__init__(context.trace_id, context.sampled)
        self.context = context


def current_trace() -> TraceContext | None:
    """The context installed on this thread, if any."""
    scope = _tracer.current_scope()
    return scope.context if isinstance(scope, trace_scope) else None


def current_trace_id() -> str | None:
    return _tracer.current_scope().trace_id
