"""The HTTP/JSON transport: a stdlib ``socketserver`` loop around
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

**Transport.**  :class:`_Handler` reads each request head itself: the
request line, then one ``readline`` per header field into a dict keyed
by the lower-cased field name (a repeated field keeps its first value),
and dispatches ``do_GET``/``do_POST``.  Each response — status line,
``Server``, ``Date`` (formatted once a second), ``Content-Type``,
``Content-Length``, ``X-Trace-Id`` and, when the connection closes,
``Connection: close`` — goes out in one write with its body, and every
accepted socket has ``TCP_NODELAY`` set.  Connections persist on
HTTP/1.1 unless the client sends ``Connection: close``, and on HTTP/1.0
only with ``Connection: keep-alive``; ``Expect: 100-continue`` is
answered with ``100 Continue`` before the body is read.  A head the
server cannot read gets a typed error payload and the connection is
closed: 400 for a malformed request line or field, or two
``Content-Length`` fields that differ; 411 for ``Transfer-Encoding``
(bodies must declare their length); 414 for a request line over 64 KiB;
431 for a field line over 64 KiB or more than 100 fields; 501 for a
method with no route; 505 for an HTTP major version other than 1.
The server imports none of ``http.server``, ``http.client``, ``email``
or ``ssl``.

**Tracing (telemetry v2).**  Every request gets a
:class:`~repro.telemetry.context.TraceContext` — the client's id from
the ``trace_id`` body field or ``X-Trace-Id`` header when valid, a
fresh one otherwise — installed as the handler thread's tracer state
(:class:`~repro.telemetry.context.trace_scope`) for the duration of the
request, so a connection's thread, which serves each of its requests in
turn, can never leak spans between them, and the service joins that
scope.  The final trace id is echoed in every response body (success and
typed error) and as an ``X-Trace-Id`` response header; span *recording*
follows the service's sampling rate.

``GET /metrics`` content-negotiates: JSON by default (unchanged), and
Prometheus text exposition 0.0.4 when the ``Accept`` header asks for
``text/plain`` or the query string says ``?format=prometheus``.

Concurrency: ``socketserver.ThreadingMixIn`` starts one thread per
accepted connection, which serves that connection's requests in order;
everything those threads touch (service dicts, engine caches, tenant
counters) takes its own lock, and the per-request admission token bounds
how long any of them can run.
"""

from __future__ import annotations

import json
import re
import socketserver
import threading
import time
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
_SERVER = "fmtoolbox/1"
#: Longest request line or header field line read, in bytes, and most
#: header fields read per request.
_MAX_LINE = 65536
_MAX_FIELDS = 100
_BLANK = (b"\r\n", b"\n")
#: HTTP-version (RFC 9112 §2.3): one digit each side of the dot.
_VERSION = re.compile(r"HTTP/([0-9])\.[0-9]")
#: Reason phrases of the statuses this server sends (RFC 9110 §15).
_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    409: "Conflict",
    411: "Length Required",
    413: "Content Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def http_date(seconds: float) -> str:
    """``seconds`` since the epoch as an IMF-fixdate (RFC 9110 §5.6.7),
    e.g. ``Sun, 06 Nov 1994 08:49:37 GMT``; the names are fixed, not
    the locale's."""
    t = time.gmtime(seconds)
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


class QueryServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """A threading TCP server carrying the service instance: one thread
    per accepted connection, started on accept."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, _Handler)
        self.service = service
        self._date = (0, "")

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def date(self) -> str:
        """The ``Date`` field value, formatted at most once a second."""
        now = int(time.time())
        stamp = self._date
        if stamp[0] != now:
            # Threads may race to refresh it; each writes a whole pair.
            stamp = self._date = (now, http_date(now))
        return stamp[1]


class _Headers(dict):
    """A request's header fields by lower-cased name; a repeated field
    keeps its first value.  :meth:`get` takes a name in any case."""

    def get(self, name: str, default: str | None = None) -> str | None:
        return dict.get(self, name.lower(), default)


class _Handler(socketserver.StreamRequestHandler):
    # TCP_NODELAY on every accepted socket: with Nagle's algorithm on, the
    # last segment of a response longer than one segment, or a response
    # written after a ``100 Continue``, waits ~40 ms for the client's
    # delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def handle(self) -> None:
        """Serve the connection's requests in turn until one closes it."""
        self.close_connection = False
        while not self.close_connection:
            try:
                method = self._read_head()
                if method is None:
                    return
                route = getattr(self, f"do_{method}", None)
                if route is None:
                    raise ServerError(f"no route for method {method!r}", status=501)
            except ServerError as error:
                # The rest of the stream cannot be framed: answer, then close.
                self.close_connection = True
                context = mint(
                    self.headers.get("X-Trace-Id"), rate=self._service.trace_rate()
                )
                self._send_error_payload(error, context.trace_id)
                return
            route()

    def _read_head(self) -> str | None:
        """Read one request line and its header fields into ``path`` and
        ``headers``; return the method, or ``None`` once the client has
        closed the connection.  A head that cannot be read raises a
        typed :class:`ServerError`."""
        headers = self.headers = _Headers()
        readline = self.rfile.readline
        line = readline(_MAX_LINE + 1)
        if line in _BLANK:
            # RFC 9112 §2.2: ignore an empty line before a request line.
            line = readline(_MAX_LINE + 1)
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise ServerError(f"request line over {_MAX_LINE} bytes", status=414)
        words = line.decode("latin-1").split()
        version = _VERSION.fullmatch(words[-1]) if len(words) == 3 else None
        if version is None:
            raise ServerError(f"malformed request line {line[:100]!r}")
        if version[1] != "1":
            raise ServerError(f"HTTP version {words[2]!r} is not served", status=505)
        method, self.path, _ = words
        for _ in range(_MAX_FIELDS + 1):
            line = readline(_MAX_LINE + 1)
            if line in _BLANK:
                break
            if not line:
                return None
            if len(line) > _MAX_LINE:
                raise ServerError(f"header field over {_MAX_LINE} bytes", status=431)
            name, colon, value = line.decode("latin-1").partition(":")
            # A field name is a token: no blank before the colon (RFC 9112
            # §5.1) or at the start of the line (a folded line, §5.2).
            if not colon or not name or " " in name or "\t" in name:
                raise ServerError(f"malformed header field {line[:100]!r}")
            # A field value's surrounding blanks are not part of it (RFC
            # 9110 §5.5).
            key, value = name.lower(), value.strip(" \t\r\n")
            if headers.setdefault(key, value) != value and key == "content-length":
                raise ServerError("Content-Length fields differ")
        else:
            raise ServerError(f"more than {_MAX_FIELDS} header fields", status=431)
        if "transfer-encoding" in headers:
            raise ServerError(
                "Transfer-Encoding is not read; send Content-Length", status=411
            )
        connection = headers.get("connection", "").lower()
        http_1_0 = words[2] == "HTTP/1.0"
        self.close_connection = connection == "close" or (
            http_1_0 and connection != "keep-alive"
        )
        if not http_1_0 and headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return method

    def _send(self, status: int, body: bytes, content_type: str, trace_id: str) -> None:
        """The one response writer: every response, page, JSON or text,
        goes out through here, head and body in one write."""
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Server: {_SERVER}\r\nDate: {self.server.date()}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
            f"X-Trace-Id: {trace_id}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(f"{head}\r\n".encode() + body)

    def _send_error_payload(self, error: BaseException, trace_id: str) -> None:
        payload = wire.error_to_wire(error, trace_id=trace_id)
        self._send(payload["status"], _dumps(payload), _JSON, trace_id)

    def _json_body(self) -> dict[str, Any]:
        declared = self.headers.get("Content-Length") or "0"
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
            # The body is left unread, so it would be read as the next
            # request: answer, then close.
            self.close_connection = True
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

    def do_GET(self) -> None:  # noqa: N802 — dispatched by method name
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

    def do_POST(self) -> None:  # noqa: N802 — dispatched by method name
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
