"""The HTTP/JSON transport: stdlib ``ThreadingHTTPServer`` around
:class:`~repro.server.service.QueryService`.

Endpoints (all JSON, wire format v1 — see :mod:`repro.server.wire`):

=========================  ==================================================
``GET  /healthz``          liveness + wire version + occupancy
``GET  /metrics``          telemetry snapshot, cache stats, per-tenant counters
``POST /v1/structures``    upload a structure → content-addressed id
``POST /v1/queries``       prepare a named query (parse + validate once)
``POST /v1/answers``       answer pages: prepared or ad-hoc, single or batched
``POST /v1/structures/<id>/updates``  batched tuple deltas → new content id
=========================  ==================================================

The handler is a pure codec: decode JSON → call the service → encode the
result or the typed error payload.  Status codes come from
:func:`repro.server.wire.status_for_error` — 429 for budget refusals,
503 for injected faults, 404/409/400 for caller mistakes — so clients
(including the conformance ``remote`` backend) can branch on status and
``error.type`` without parsing message text.

**Tracing (telemetry v2).**  Every request gets a
:class:`~repro.telemetry.context.TraceContext` — the client's id from
the ``trace_id`` body field or ``X-Trace-Id`` header when valid, a
fresh one otherwise — installed as the handler thread's tracer state
(:class:`~repro.telemetry.context.trace_scope`) for the duration of the
request, so a reused ``ThreadingHTTPServer`` thread can never leak
spans between tenants, and the service joins that scope.  The final
trace id is echoed in every response body (success and typed error) and
as an ``X-Trace-Id`` response header; span *recording* follows the
service's sampling rate.

``GET /metrics`` content-negotiates: JSON by default (unchanged), and
Prometheus text exposition 0.0.4 when the ``Accept`` header asks for
``text/plain`` or the query string says ``?format=prometheus``.

Concurrency: ``ThreadingHTTPServer`` gives one thread per in-flight
request; everything those threads touch (service dicts, engine caches,
tenant counters) takes its own lock, and the per-request admission token
bounds how long any of them can run.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServerError
from repro.server import wire
from repro.server.service import AnswerPage, QueryService
from repro.telemetry.context import mint, trace_scope
from repro.telemetry.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from repro.telemetry.tracer import span as _span

__all__ = ["QueryServer", "make_server", "serve"]

_MAX_BODY_BYTES = 32 * 1024 * 1024
_JSON = "application/json"


class QueryServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the service instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server_version = "fmtoolbox/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket. A response goes out as two
    # writes (headers, then body); with Nagle's algorithm on, the body
    # waits for the ACK of the headers, which a keep-alive client delays
    # by ~40 ms, so every read on a persistent connection stalled.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silent: the access log (``--access-log``) is the request log."""

    def _send(
        self, status: int, body: bytes, content_type: str, trace_id: str | None
    ) -> None:
        """The one response writer: every response, page, JSON or text,
        goes out through here."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if trace_id is not None:
            self.send_header("X-Trace-Id", trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(
        self, error: BaseException, trace_id: str | None = None
    ) -> None:
        payload = wire.error_to_wire(error, trace_id=trace_id)
        self._send(payload["status"], _dumps(payload), _JSON, trace_id)

    def _json_body(self) -> dict[str, Any]:
        # A field value's surrounding blanks are not part of it (RFC 9110
        # §5.5); the header parser keeps the trailing ones.
        declared = (self.headers.get("Content-Length") or "0").strip(" \t")
        if not (declared.isascii() and declared.isdigit()):
            # Where this body ends is unknown, so nothing after it on the
            # connection can be read as a request: answer, then close.
            self.close_connection = True
            raise ServerError(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        if length <= 0:
            raise ServerError("request body required")
        if length > _MAX_BODY_BYTES:
            raise ServerError(f"request body over {_MAX_BODY_BYTES} bytes", status=413)
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServerError(f"request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise ServerError("request body must be a JSON object")
        return body

    @property
    def _service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        context = mint(
            self.headers.get("X-Trace-Id"), rate=self._service.trace_rate()
        )
        try:
            parts = urlsplit(self.path)
            content_type = _JSON
            if parts.path == "/healthz":
                body = _dumps(self._service.health())
            elif parts.path == "/metrics" and self._wants_prometheus(parts.query):
                body = self._service.metrics_prometheus().encode()
                content_type = _PROMETHEUS_CONTENT_TYPE
            elif parts.path == "/metrics":
                body = _dumps(self._service.metrics())
            else:
                raise ServerError(f"no route for GET {self.path}", status=404)
            self._send(200, body, content_type, context.trace_id)
        except Exception as error:  # noqa: BLE001 — boundary: encode, don't crash
            self._send_error_payload(error, trace_id=context.trace_id)

    def _wants_prometheus(self, query: str) -> bool:
        requested = parse_qs(query).get("format", [""])[0]
        if requested == "prometheus":
            return True
        if requested == "json":
            return False
        return "text/plain" in (self.headers.get("Accept") or "")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        context = None
        header_id = self.headers.get("X-Trace-Id")
        try:
            body = self._json_body()
            context = mint(
                body.get("trace_id", header_id), rate=self._service.trace_rate()
            )
            with trace_scope(context):
                with _span("server.request") as request_span:
                    request_span.set("path", self.path)
                    update_target = _updates_target(self.path)
                    if self.path == "/v1/structures":
                        result = self._post_structures(body)
                    elif self.path == "/v1/queries":
                        result = self._post_queries(body)
                    elif self.path == "/v1/answers":
                        result = self._post_answers(body)
                    elif update_target is not None:
                        result = self._post_structure_updates(update_target, body)
                    else:
                        raise ServerError(
                            f"no route for POST {self.path}", status=404
                        )
            self._send(200, _response(result, context.trace_id), _JSON, context.trace_id)
        except Exception as error:  # noqa: BLE001 — boundary: encode, don't crash
            if context is None:
                context = mint(header_id, rate=self._service.trace_rate())
            self._send_error_payload(error, trace_id=context.trace_id)

    # -- endpoint bodies -----------------------------------------------------

    def _post_structures(self, body: dict[str, Any]) -> dict[str, Any]:
        if "structure" not in body:
            raise ServerError("'structure' is required")
        structure_id = self._service.add_structure(
            body["structure"], tenant=body.get("tenant")
        )
        structure = self._service.structure(structure_id)
        return {
            "structure_id": structure_id,
            "size": structure.size,
            "wire_version": wire.WIRE_VERSION,
        }

    def _post_queries(self, body: dict[str, Any]) -> dict[str, Any]:
        tenant = _required_str(body, "tenant")
        prepared = self._service.prepare(
            tenant,
            _required_str(body, "formula"),
            name=body.get("name"),
            structure_id=body.get("structure_id"),
            constants=body.get("constants", ()),
            free_variables=body.get("free_variables"),
        )
        return {
            "query": prepared.name,
            "formula": prepared.text,
            "free_variables": list(prepared.free_names),
            "is_sentence": prepared.is_sentence,
        }

    def _post_structure_updates(
        self, structure_id: str, body: dict[str, Any]
    ) -> dict[str, Any]:
        tenant = _required_str(body, "tenant")
        updates = body.get("updates")
        if not isinstance(updates, list):
            raise ServerError("'updates' must be a list of delta objects")
        return self._service.apply_updates(
            tenant,
            structure_id,
            updates,
            deadline_ms=body.get("deadline_ms"),
            max_rows=body.get("max_rows"),
        )

    def _post_answers(self, body: dict[str, Any]) -> AnswerPage | list[AnswerPage]:
        tenant = _required_str(body, "tenant")
        if "requests" in body:
            return self._service.answers_batch(
                tenant,
                body["requests"],
                deadline_ms=body.get("deadline_ms"),
                max_rows=body.get("max_rows"),
                page_size=body.get("page_size"),
            )
        return self._service.answers(
            tenant,
            body.get("structure_id", ""),
            query=body.get("query"),
            formula=body.get("formula"),
            page=body.get("page", 0),
            page_size=body.get("page_size"),
            deadline_ms=body.get("deadline_ms"),
            max_rows=body.get("max_rows"),
            free_variables=body.get("free_variables"),
            explain=body.get("explain", False),
        )


def _response(result: dict | AnswerPage | list[AnswerPage], trace_id: str) -> bytes:
    """A 200 body: ``result`` with ``trace_id`` at the top level, dumped
    with sorted keys.  Answer pages splice in their row texts
    (:meth:`AnswerPage.to_json`), a batch's under ``results``."""
    if isinstance(result, AnswerPage):
        return result.to_json(trace_id).encode()
    if isinstance(result, list):
        pages = f"[{', '.join(page.to_json() for page in result)}]"
        return wire.splice({"trace_id": trace_id}, "results", pages).encode()
    return _dumps({**result, "trace_id": trace_id})


def _dumps(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def _updates_target(path: str) -> str | None:
    """The structure id of a ``/v1/structures/<id>/updates`` path, if any."""
    parts = path.split("/")
    if (
        len(parts) == 5
        and parts[:3] == ["", "v1", "structures"]
        and parts[4] == "updates"
        and parts[3]
    ):
        return parts[3]
    return None


def _required_str(body: dict[str, Any], key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value:
        raise ServerError(f"{key!r} must be a non-empty string")
    return value


def make_server(
    service: QueryService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> QueryServer:
    """Bind (but do not start) a server; ``port=0`` picks an ephemeral
    port, readable from ``server.server_address``."""
    service = service if service is not None else QueryService()
    return QueryServer((host, port), service)


def serve(
    service: QueryService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[QueryServer, threading.Thread]:
    """Start a server on a daemon thread (tests and notebooks); returns
    the server (for ``.url`` / ``.shutdown()``) and its thread."""
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
