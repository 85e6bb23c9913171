"""The request loop over raw sockets: typed answers to heads it cannot
read, framing under pipelining and concurrent persistent connections,
and the server's import graph.

Every socket has a timeout, so a server that hangs fails the test
instead of blocking it."""

from __future__ import annotations

import email.utils
import http.client
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.server import wire
from repro.server.http import http_date, serve
from repro.server.service import QueryService
from repro.structures.builders import directed_cycle, undirected_cycle

TIMEOUT = 10.0


@pytest.fixture(scope="module")
def address():
    server, thread = serve(QueryService())
    yield server.server_address[:2]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def cycle_id(address) -> str:
    body = json.dumps({"structure": wire.structure_to_dict(undirected_cycle(6))})
    (status, _, payload), = _exchange(address, _post("/v1/structures", body))
    assert status == 200, payload
    return json.loads(payload)["structure_id"]


def _post(path: str, body: str, *fields: str) -> bytes:
    head = [f"POST {path} HTTP/1.1", f"Content-Length: {len(body)}", *fields]
    return ("\r\n".join(head) + "\r\n\r\n" + body).encode()


def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    """(status, fields by lower-cased name, body) of one response."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    fields = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.lower()] = value.strip()
    body = reader.read(int(fields.get("content-length", "0")))
    return int(status_line.split()[1]), fields, body


def _exchange(address, request: bytes, responses: int = 1):
    """Send ``request`` in one write; read ``responses`` responses."""
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        sock.sendall(request)
        reader = sock.makefile("rb")
        return [_read_response(reader) for _ in range(responses)]


def _assert_closed(reader) -> None:
    try:
        assert reader.read(1) == b""
    except ConnectionResetError:
        pass  # the server closed with bytes of the request unread


def _typed_refusal(address, request: bytes, status: int) -> dict:
    """Send a head the server cannot read: it must answer with a typed
    error payload, say it closes, and close."""
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        sock.sendall(request)
        reader = sock.makefile("rb")
        answer, fields, body = _read_response(reader)
        _assert_closed(reader)
    payload = json.loads(body)
    assert answer == status, payload
    assert fields["content-type"] == "application/json"
    assert fields["connection"] == "close"
    assert fields["x-trace-id"] == payload["trace_id"]
    assert payload["status"] == status
    assert payload["error"]["type"] == "ServerError"
    return payload


# -- heads the server cannot read ---------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        b"GARBAGE",
        b"GET /healthz",
        b"GET /healthz HTTP/1.1 extra",
        b"GET /healthz FTP/1.1",
        b"GET /healthz HTTP/1",
        b"GET /healthz HTTP/1.10",
        b"GET /healthz HTTP/\xb9.1",
    ],
)
def test_a_bad_request_line_is_a_typed_400(address, line: bytes):
    _typed_refusal(address, line + b"\r\n\r\n", 400)


def test_another_major_version_is_a_typed_505(address):
    _typed_refusal(address, b"GET /healthz HTTP/2.0\r\n\r\n", 505)


def test_an_unknown_method_is_a_typed_501(address):
    payload = _typed_refusal(address, b"BREW /healthz HTTP/1.1\r\n\r\n", 501)
    assert "BREW" in payload["error"]["message"]


def test_conflicting_content_lengths_are_a_typed_400(address, cycle_id: str):
    body = json.dumps({"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"})
    request = (
        "POST /v1/answers HTTP/1.1\r\nX-Trace-Id: 5eed01\r\n"
        f"Content-Length: {len(body)}\r\nContent-Length: 3\r\n\r\n{body}"
    ).encode()
    payload = _typed_refusal(address, request, 400)
    assert "Content-Length" in payload["error"]["message"]
    assert payload["trace_id"] == "5eed01"


def test_repeated_equal_content_lengths_are_read(address, cycle_id: str):
    body = json.dumps({"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"})
    request = _post("/v1/answers", body, f"Content-Length: {len(body)} ")
    (status, fields, payload), = _exchange(address, request)
    assert status == 200, payload
    assert json.loads(payload)["total_rows"] == 12
    assert "connection" not in fields


def test_a_chunked_body_is_a_typed_411(address):
    request = (
        b"POST /v1/answers HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n"
    )
    payload = _typed_refusal(address, request, 411)
    assert "Content-Length" in payload["error"]["message"]


def test_an_over_long_request_line_is_a_typed_414(address):
    request = b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n"
    _typed_refusal(address, request, 414)


@pytest.mark.parametrize(
    "fields",
    [
        [b"X-Long: " + b"a" * 65536],
        [b"X-Field-%d: %d" % (index, index) for index in range(101)],
    ],
    ids=["over-long-field", "101-fields"],
)
def test_an_over_large_head_is_a_typed_431(address, fields: list[bytes]):
    request = b"GET /healthz HTTP/1.1\r\n" + b"\r\n".join(fields) + b"\r\n\r\n"
    _typed_refusal(address, request, 431)


@pytest.mark.parametrize("line", [b"Bad Name: 1", b"NoColon", b"Name : 1", b" folded"])
def test_a_malformed_field_is_a_typed_400(address, line: bytes):
    _typed_refusal(address, b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + line + b"\r\n\r\n", 400)


def test_a_hundred_fields_are_read(address):
    fields = b"".join(b"X-Field-%d: %d\r\n" % (index, index) for index in range(100))
    (status, _, _), = _exchange(address, b"GET /healthz HTTP/1.1\r\n" + fields + b"\r\n")
    assert status == 200


# -- framing --------------------------------------------------------------------


def test_pipelined_posts_are_answered_in_order(address, cycle_id: str):
    requests = [
        json.dumps({"tenant": "t", "structure_id": cycle_id, "formula": text})
        for text in ("E(x, y)", "exists y. E(x, y)")
    ]
    responses = _exchange(
        address,
        _post("/v1/answers", requests[0], "X-Trace-Id: aa01")
        + _post("/v1/answers", requests[1], "X-Trace-Id: aa02"),
        responses=2,
    )
    assert [status for status, _, _ in responses] == [200, 200]
    assert [fields["x-trace-id"] for _, fields, _ in responses] == ["aa01", "aa02"]
    assert [json.loads(body)["total_rows"] for _, _, body in responses] == [12, 6]


def test_expect_100_continue_is_answered_before_the_body(address, cycle_id: str):
    body = json.dumps({"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"})
    head = (
        "POST /v1/answers HTTP/1.1\r\nExpect: 100-continue\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        sock.sendall(head)
        reader = sock.makefile("rb")
        status, fields, interim = _read_response(reader)
        assert (status, fields, interim) == (100, {}, b"")
        sock.sendall(body.encode())
        status, fields, page = _read_response(reader)
    assert status == 200
    assert json.loads(page)["total_rows"] == 12


@pytest.mark.parametrize(
    "version, connection, persists",
    [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "Close", False),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "keep-alive", True),
        ("HTTP/1.0", "Keep-Alive", True),
    ],
)
def test_connections_persist_as_their_version_and_fields_say(
    address, version: str, connection: str | None, persists: bool
):
    head = f"GET /healthz {version}\r\n"
    if connection is not None:
        head += f"Connection: {connection}\r\n"
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        sock.sendall(f"{head}\r\n".encode())
        reader = sock.makefile("rb")
        status, fields, _ = _read_response(reader)
        assert status == 200
        assert fields["x-trace-id"]
        if not persists:
            assert fields["connection"] == "close"
            _assert_closed(reader)
            return
        assert "connection" not in fields
        sock.sendall(f"{head}\r\n".encode())
        assert _read_response(reader)[0] == 200


def test_responses_carry_server_and_date(address):
    before = time.time()
    (_, fields, _), = _exchange(address, b"GET /healthz HTTP/1.1\r\n\r\n")
    assert fields["server"] == "fmtoolbox/1"
    sent = email.utils.parsedate_to_datetime(fields["date"]).timestamp()
    assert before - 1 <= sent <= time.time() + 1


@pytest.mark.parametrize("seconds", [0, 784111777, 951782400, 1700000000.9, 4102444799])
def test_http_date_is_an_imf_fixdate(seconds: float):
    assert http_date(seconds) == email.utils.formatdate(int(seconds), usegmt=True)


# -- concurrent persistent connections ------------------------------------------

PREPARED = "exists y. (E(x, y) & E(y, x))"
ADHOC = ("E(x, y)", "exists z. (E(x, z) & E(z, y))", "exists y. E(y, x)")


def test_concurrent_connections_keep_their_framing_and_answers(address):
    """Four threads, each on its own persistent connection, send a seeded
    mix of prepared reads, ad-hoc reads, single-tuple writes to their own
    structure and a 404.  Each response echoes its request's trace id,
    and each read equals the naive evaluator's answers for the structure
    id it names."""
    host, port = address
    failures: list[str] = []
    barrier = threading.Barrier(4)

    def client(worker: int) -> None:
        rng = random.Random(worker)
        tenant = f"mix-{worker}"
        local = directed_cycle(5 + worker)  # no two workers share content
        nodes = sorted(local.universe)
        connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT)

        def call(index: int, method: str, path: str, payload: dict | None = None):
            trace_id = f"{worker:02x}{index:04x}"
            body = None if payload is None else json.dumps(payload)
            connection.request(method, path, body, {"X-Trace-Id": trace_id})
            response = connection.getresponse()
            answer = json.loads(response.read())
            if response.getheader("X-Trace-Id") != trace_id or answer.get("trace_id") != trace_id:
                failures.append(f"{trace_id}: echoed {response.getheader('X-Trace-Id')}")
            return response.status, answer

        try:
            status, uploaded = call(0, "POST", "/v1/structures", {
                "tenant": tenant, "structure": wire.structure_to_dict(local)})
            structure_id = uploaded["structure_id"]
            status, prepared = call(1, "POST", "/v1/queries", {
                "tenant": tenant, "formula": PREPARED, "structure_id": structure_id})
            barrier.wait(timeout=30)
            for index in range(2, 102):
                kind = rng.choice(("prepared", "adhoc", "adhoc", "write", "missing"))
                if kind == "missing":
                    status, answer = call(index, "GET", f"/v1/nope/{index}")
                    if status != 404 or answer["error"]["type"] != "ServerError":
                        failures.append(f"{worker}/{index}: {status} {answer}")
                    continue
                if kind == "write":
                    row = [rng.choice(nodes), rng.choice(nodes)]
                    op = "delete" if tuple(row) in local.relations["E"] else "insert"
                    status, answer = call(
                        index, "POST", f"/v1/structures/{structure_id}/updates",
                        {"tenant": tenant, "updates": [{"op": op, "relation": "E", "row": row}]},
                    )
                    if status != 200 or answer["applied"] != 1:
                        failures.append(f"{worker}/{index}: {status} {answer}")
                        return
                    (local.insert if op == "insert" else local.delete)("E", tuple(row))
                    structure_id = answer["structure_id"]
                    continue
                read = {"tenant": tenant, "structure_id": structure_id}
                if kind == "prepared":
                    text, read["query"] = PREPARED, prepared["query"]
                else:
                    text = read["formula"] = rng.choice(ADHOC)
                status, page = call(index, "POST", "/v1/answers", read)
                expected = naive_answers(local, parse(text))
                if status != 200 or wire.answers_from_wire(page["rows"]) != expected:
                    failures.append(f"{worker}/{index}: {text} read {status} {page}")
        except Exception as error:  # noqa: BLE001 — reported below
            failures.append(f"{worker}: {error!r}")
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(worker,)) for worker in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# -- the import graph -----------------------------------------------------------


def test_the_server_imports_no_stdlib_http_stack():
    """Serving needs neither ``http.server`` nor what it pulls in: the
    ``email`` header parser, ``http.client`` and ``ssl``."""
    source = Path(repro.__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "import repro.server.cli, repro.telemetry.logs\n"
        "print(sorted(name for name in ('http.server', 'http.client', 'email', 'ssl')"
        " if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(source))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout
