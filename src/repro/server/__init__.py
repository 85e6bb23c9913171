"""repro.server — a multi-tenant FO query service (S18).

The serving layer over the toolbox: a long-running HTTP/JSON service
(stdlib only — a ``socketserver`` request loop, one thread per
connection) with

* a **stable wire format** (:mod:`repro.server.wire`, v1) shared with
  the conformance corpus — structures, formulas (concrete syntax),
  canonically ordered answer pages, and typed error payloads;
* **sessions**: named prepared queries (parse + validate once, execute
  many), a content-addressed structure store, and the shared engine's
  plan/answer caches as the cross-tenant plan cache
  (:mod:`repro.server.service`);
* **admission control**: per-tenant
  :class:`~repro.resilience.budget.Budget` specs +
  :class:`~repro.resilience.fallback.FallbackChain` degradation; over
  budget is a typed 429/503 refusal, never a hang or a wrong answer;
* **endpoints**: ``POST /v1/structures``, ``POST /v1/queries``,
  ``POST /v1/answers`` (single or batched, each batch item read as a
  single request is, with paging), ``GET /metrics``, ``GET /healthz``
  (:mod:`repro.server.http`);
* a **CLI**: ``python -m repro.server`` (:mod:`repro.server.cli`).

Importing :mod:`repro.server` (or just :mod:`repro.server.wire`) stays
lightweight; the engine stack loads lazily on first access to the
service/http/cli symbols.
"""

from __future__ import annotations

from repro.server.wire import WIRE_VERSION

__all__ = [
    "WIRE_VERSION",
    "AnswerPage",
    "PreparedQuery",
    "QueryServer",
    "QueryService",
    "TenantSession",
    "main",
    "make_server",
    "serve",
    "wire",
]

_LAZY = {
    "AnswerPage": ("repro.server.service", "AnswerPage"),
    "PreparedQuery": ("repro.server.service", "PreparedQuery"),
    "QueryService": ("repro.server.service", "QueryService"),
    "TenantSession": ("repro.server.service", "TenantSession"),
    "QueryServer": ("repro.server.http", "QueryServer"),
    "make_server": ("repro.server.http", "make_server"),
    "serve": ("repro.server.http", "serve"),
    "main": ("repro.server.cli", "main"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.server' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
