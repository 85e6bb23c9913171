"""The HTTP transport end to end: a live ephemeral-port server per module."""

from __future__ import annotations

import http.client
import json
import statistics
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.server import wire
from repro.server.http import serve
from repro.server.service import QueryService
from repro.structures.builders import undirected_cycle


@pytest.fixture(scope="module")
def server_url():
    server, thread = serve(QueryService())
    yield server.url
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def cycle_id(server_url: str) -> str:
    status, body = _post(
        server_url + "/v1/structures",
        {"tenant": "t", "structure": wire.structure_to_dict(undirected_cycle(6))},
    )
    assert status == 200
    return body["structure_id"]


def test_healthz(server_url: str):
    status, body = _get(server_url + "/healthz")
    assert status == 200
    assert body["ok"] is True
    assert body["wire_version"] == wire.WIRE_VERSION


def test_structure_upload_idempotent(server_url: str, cycle_id: str):
    status, body = _post(
        server_url + "/v1/structures",
        {"structure": wire.structure_to_dict(undirected_cycle(6))},
    )
    assert status == 200
    assert body["structure_id"] == cycle_id
    assert body["size"] == 6


def test_prepare_and_answer(server_url: str, cycle_id: str):
    status, prepared = _post(
        server_url + "/v1/queries",
        {"tenant": "t", "formula": "exists y. E(x, y)", "structure_id": cycle_id},
    )
    assert status == 200
    assert prepared["free_variables"] == ["x"]
    assert prepared["is_sentence"] is False

    status, page = _post(
        server_url + "/v1/answers",
        {"tenant": "t", "structure_id": cycle_id, "query": prepared["query"]},
    )
    assert status == 200
    expected = naive_answers(undirected_cycle(6), parse("exists y. E(x, y)"))
    assert wire.answers_from_wire(page["rows"]) == expected
    assert page["total_rows"] == len(expected)
    assert page["has_more"] is False
    assert page["free_variables"] == ["x"]


def test_adhoc_answer_and_paging(server_url: str, cycle_id: str):
    rows: list = []
    page_index = 0
    while True:
        status, page = _post(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "page": page_index,
                "page_size": 5,
            },
        )
        assert status == 200
        rows.extend(page["rows"])
        if not page["has_more"]:
            break
        page_index += 1
    expected = naive_answers(undirected_cycle(6), parse("E(x, y)"))
    assert wire.answers_from_wire(rows) == expected
    assert len(rows) == len(expected)  # pages partition, no overlap


def test_batch_answers(server_url: str, cycle_id: str):
    status, body = _post(
        server_url + "/v1/answers",
        {
            "tenant": "t",
            "requests": [
                {"structure_id": cycle_id, "formula": "E(x, y)"},
                {"structure_id": cycle_id, "formula": "exists x. E(x, y)"},
            ],
        },
    )
    assert status == 200
    results = body["results"]
    assert len(results) == 2
    assert wire.answers_from_wire(results[0]["rows"]) == naive_answers(
        undirected_cycle(6), parse("E(x, y)")
    )


def test_over_budget_refusal_is_typed_429(server_url: str, cycle_id: str):
    status, body = _post(
        server_url + "/v1/answers",
        {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)", "max_rows": 1},
    )
    assert status == 429
    error = body["error"]
    assert error["type"] == "BudgetExceededError"
    assert error["refusal"] is True
    assert error["spent"] == 12
    assert error["budget"] == 1


def test_unknown_structure_404(server_url: str):
    status, body = _post(
        server_url + "/v1/answers",
        {"tenant": "t", "structure_id": "s-0000000000000000", "formula": "E(x, y)"},
    )
    assert status == 404
    assert body["error"]["type"] == "UnknownResourceError"


def test_unknown_query_404(server_url: str, cycle_id: str):
    status, body = _post(
        server_url + "/v1/answers",
        {"tenant": "t", "structure_id": cycle_id, "query": "q-nope"},
    )
    assert status == 404
    assert body["error"]["type"] == "UnknownResourceError"


def test_parse_error_400(server_url: str, cycle_id: str):
    status, body = _post(
        server_url + "/v1/answers",
        {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, ("},
    )
    assert status == 400
    assert body["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "fields",
    [
        {"page": "x"},
        {"page": None},
        {"page_size": "x"},
        {"max_rows": True},
        {"explain": "false"},
        {"structure_id": [1]},
    ],
    ids=repr,
)
def test_malformed_answer_fields_400(server_url: str, cycle_id: str, fields: dict):
    status, body = _post(
        server_url + "/v1/answers",
        {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)", **fields},
    )
    assert status == 400
    assert body["error"]["type"] == "ServerError"


@pytest.mark.parametrize(
    "path, fields",
    [
        ("/v1/answers", {"query": ["x"]}),
        ("/v1/queries", {"constants": "ab"}),
        ("/v1/queries", {"constants": 5}),
        ("/v1/queries", {"constants": [1]}),
        ("/v1/queries", {"name": ["x"]}),
        ("/v1/queries", {"name": 5}),
    ],
    ids=repr,
)
def test_fields_of_the_wrong_type_400(
    server_url: str, cycle_id: str, path: str, fields: dict
):
    """Passed through uncoerced and refused by name: ``"ab"`` is not the
    constants a and b, and a list is no query or query name."""
    if path == "/v1/answers":
        base = {"tenant": "t", "structure_id": cycle_id, "query": "q"}
    else:
        base = {"tenant": "t", "formula": "E(a, b)"}
    status, body = _post(server_url + path, {**base, **fields})
    assert status == 400
    assert body["error"]["type"] == "ServerError"
    (field,) = fields
    assert body["error"]["message"].startswith(f"{field} must be")


@pytest.mark.parametrize("tenant", [["x"], {"x": 1}, ""], ids=repr)
def test_upload_with_a_malformed_tenant_400_stores_nothing(server_url: str, tenant):
    structure = undirected_cycle(9)
    status, body = _post(
        server_url + "/v1/structures",
        {"tenant": tenant, "structure": wire.structure_to_dict(structure)},
    )
    assert status == 400
    assert body["error"]["type"] == "ServerError"
    assert body["error"]["message"].startswith("tenant must be")
    status, body = _post(
        server_url + "/v1/answers",
        {
            "tenant": "t",
            "structure_id": wire.structure_digest(structure),
            "formula": "E(x, y)",
        },
    )
    assert status == 404, body


def test_prepare_conflict_409(server_url: str, cycle_id: str):
    payload = {
        "tenant": "t",
        "formula": "E(x, y)",
        "name": "clash",
        "structure_id": cycle_id,
    }
    assert _post(server_url + "/v1/queries", payload)[0] == 200
    status, body = _post(
        server_url + "/v1/queries", {**payload, "formula": "~(E(x, y))"}
    )
    assert status == 409
    assert body["error"]["type"] == "ServerError"


def test_malformed_json_400(server_url: str):
    request = urllib.request.Request(
        server_url + "/v1/answers",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["error"]["type"] == "ServerError"


def test_missing_body_400(server_url: str):
    request = urllib.request.Request(server_url + "/v1/answers", data=b"")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400


@pytest.mark.parametrize("declared", ["abc", "1.5", "-5", "\u0663"])
def test_malformed_content_length_400_closes(server_url: str, declared: str):
    """A Content-Length that is not a non-negative decimal integer is a
    typed 400 (it was a 500 ``ValueError``), and the server closes the
    connection, since it cannot tell where the body ends.  Sent through
    ``http.client``: urllib sets the header itself."""
    host, port = urllib.parse.urlsplit(server_url).netloc.split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.putrequest("POST", "/v1/answers", skip_accept_encoding=True)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", declared.encode())
        connection.endheaders(b'{"tenant": "t"}')
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 400, body
        assert body["error"]["type"] == "ServerError", body
        assert "Content-Length" in body["error"]["message"], body
        assert response.getheader("Connection") == "close"
        assert response.will_close
    finally:
        connection.close()


@pytest.mark.parametrize(
    "path", ["/healthz", "/metrics", "/metrics?format=prometheus", "/nope"]
)
def test_every_response_says_it_closes(server_url: str, path: str):
    """A client that asks to close gets ``Connection: close`` back on
    every response, the Prometheus exposition included (its writer
    omitted the header)."""
    host, port = urllib.parse.urlsplit(server_url).netloc.split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.request("GET", path, headers={"Connection": "close"})
        response = connection.getresponse()
        response.read()
        assert response.getheader("Connection") == "close", path
        assert response.getheader("X-Trace-Id")
        assert response.will_close
    finally:
        connection.close()


@pytest.mark.parametrize("padding", [" ", "\t", "  \t"])
def test_padded_content_length_is_read(server_url: str, cycle_id: str, padding: str):
    """Blanks around a Content-Length value are not part of it: the
    request is answered and the connection stays open."""
    host, port = urllib.parse.urlsplit(server_url).netloc.split(":")
    body = json.dumps({"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"}).encode()
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.putrequest("POST", "/v1/answers", skip_accept_encoding=True)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", f"{len(body)}{padding}".encode())
        connection.endheaders(body)
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200, payload
        assert payload["total_rows"] == 12
        assert not response.will_close
    finally:
        connection.close()


def test_unknown_route_404(server_url: str):
    status, body = _get(server_url + "/nope")
    assert status == 404
    status, body = _post(server_url + "/v1/nope", {"tenant": "t"})
    assert status == 404


def test_metrics_reflect_traffic(server_url: str, cycle_id: str):
    status, metrics = _get(server_url + "/metrics")
    assert status == 200
    assert metrics["wire_version"] == wire.WIRE_VERSION
    assert metrics["requests_served"] > 0
    assert metrics["structures"] >= 1
    tenant = metrics["tenants"]["t"]
    assert tenant["counters"]["answered"] > 0
    assert tenant["counters"]["refused"] >= 1  # the 429 test above
    assert "plan" in metrics["caches"] and "answer" in metrics["caches"]


def test_keep_alive_reads_do_not_stall(server_url: str, cycle_id: str):
    """Twenty reads over one persistent connection. When the handler
    wrote headers and body separately with Nagle's algorithm on, each
    body waited ~40 ms for the client's delayed ACK of the headers."""
    status, body = _post(
        server_url + "/v1/queries",
        {"tenant": "t", "formula": "exists y. E(x, y)", "structure_id": cycle_id},
    )
    assert status == 200
    payload = json.dumps(
        {"tenant": "t", "structure_id": cycle_id, "query": body["query"]}
    )
    host, port = urllib.parse.urlsplit(server_url).netloc.split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    latencies = []
    try:
        for _ in range(20):
            start = time.perf_counter()
            connection.request(
                "POST", "/v1/answers", payload, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            page = json.loads(response.read())
            latencies.append(time.perf_counter() - start)
            assert response.status == 200
            assert page["total_rows"] == 6
    finally:
        connection.close()
    assert statistics.median(latencies) < 0.010, latencies
