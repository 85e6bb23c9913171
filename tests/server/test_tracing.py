"""End-to-end observability: trace echo, explain, /metrics negotiation,
concurrent trace isolation, and access-log degradation joins."""

from __future__ import annotations

import json
import os
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.resilience.faults import FaultInjector, reset_injector, set_injector
from repro.server import wire
from repro.server.http import serve
from repro.server.service import QueryService
from repro.structures.builders import random_graph, undirected_cycle
from repro.telemetry.context import normalize_trace_id
from repro.telemetry.logs import AccessLog
from repro.telemetry.prometheus import parse_exposition


@pytest.fixture(scope="module")
def server_url():
    # Always-sampled so span trees are present in every explain payload.
    server, thread = serve(QueryService(trace_sample=1.0))
    yield server.url
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(
    url: str, payload: dict | None = None, headers: dict | None = None
) -> tuple[int, dict, dict]:
    """(status, body, response-headers) for a GET (payload=None) or POST."""
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture(scope="module")
def cycle_id(server_url: str) -> str:
    status, body, _ = _request(
        server_url + "/v1/structures",
        {"tenant": "t", "structure": wire.structure_to_dict(undirected_cycle(6))},
    )
    assert status == 200
    return body["structure_id"]


def _span_trace_ids(node: dict) -> set:
    ids = {node.get("trace_id")}
    for child in node.get("children", ()):
        ids |= _span_trace_ids(child)
    return ids


class TestTraceEcho:
    def test_success_echoes_client_trace_id(self, server_url, cycle_id):
        status, body, headers = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "trace_id": "abc123",
            },
        )
        assert status == 200
        assert body["trace_id"] == "abc123"
        assert headers["X-Trace-Id"] == "abc123"

    def test_typed_429_echoes_trace_id(self, server_url, cycle_id):
        status, body, headers = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "max_rows": 1,
                "trace_id": "feed01",
            },
        )
        assert status == 429
        assert body["error"]["type"] == "BudgetExceededError"
        assert body["error"]["refusal"] is True
        assert body["trace_id"] == "feed01"
        assert headers["X-Trace-Id"] == "feed01"

    def test_server_mints_when_client_sends_none(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"},
        )
        assert status == 200
        minted = body["trace_id"]
        assert normalize_trace_id(minted) == minted

    def test_invalid_client_id_is_replaced_not_echoed(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "trace_id": "NOT HEX!",
            },
        )
        assert status == 200
        assert body["trace_id"] != "NOT HEX!"
        assert normalize_trace_id(body["trace_id"]) == body["trace_id"]

    def test_header_seeds_trace_when_body_has_none(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"},
            headers={"X-Trace-Id": "beefcafe"},
        )
        assert status == 200
        assert body["trace_id"] == "beefcafe"


class TestExplain:
    def test_explain_payload_shape(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "explain": True,
                "trace_id": "deadbeef",
            },
        )
        assert status == 200
        explain = body["explain"]
        assert explain["trace_id"] == "deadbeef"
        assert explain["sampled"] is True
        plan = explain["profile"]["plan"]
        assert plan["op"]
        assert plan["actual_rows"] is not None
        assert isinstance(explain["profile"]["rows"], int)
        (root,) = explain["spans"]
        assert root["name"] == "server.request"
        assert _span_trace_ids(root) == {"deadbeef"}

    def test_explain_marks_fused_nodes_and_roots_at_the_answer_count(
        self, server_url, cycle_id
    ):
        """The wire explain profiles the executor that serves the answer:
        the pipeline's join-and-project step covers Join[z]."""
        status, body, _ = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "exists z (E(x, z) & E(z, y)) & ~E(x, y)",
                "explain": True,
            },
        )
        assert status == 200
        plan = body["explain"]["profile"]["plan"]
        assert plan["actual_rows"] == body["total_rows"] > 0
        join = plan["children"][0]["children"][0]
        assert (join["op"], join["fused_into"]) == ("Join[z]", "Project[x, y]")
        assert join["actual_rows"] is None

    def test_explain_absent_by_default(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"},
        )
        assert status == 200
        assert "explain" not in body


class TestOneScopePerRequest:
    """A request's trace state is one scope: its id is the only random
    draw, and its span trees stay with it, not in the process buffer."""

    @pytest.fixture()
    def prepared(self, server_url, cycle_id):
        status, _, _ = _request(
            server_url + "/v1/queries",
            {"tenant": "t", "formula": "exists y. E(x, y)", "name": "scoped",
             "structure_id": cycle_id},
        )
        assert status == 200
        service = QueryService(trace_sample=1.0)
        structure_id = service.add_structure(undirected_cycle(6), tenant="t")
        service.prepare("t", "exists y. E(x, y)", name="scoped", structure_id=structure_id)
        return service, structure_id

    @pytest.mark.parametrize("client_id, draws", [("abc123", 0), (None, 1)])
    def test_only_a_minted_trace_id_draws_randomness(
        self, monkeypatch, server_url, cycle_id, prepared, client_id, draws
    ):
        service, structure_id = prepared
        drawn = []
        urandom = os.urandom

        def counting(size):
            drawn.append(size)
            return urandom(size)

        monkeypatch.setattr(os, "urandom", counting)
        status, body, _ = _request(
            server_url + "/v1/answers",
            {"tenant": "t", "structure_id": cycle_id, "query": "scoped",
             **({} if client_id is None else {"trace_id": client_id})},
        )
        assert status == 200 and body["total_rows"] == 6
        assert len(drawn) == draws
        drawn.clear()
        page = service.answers("t", structure_id, query="scoped", trace_id=client_id)
        assert page.total_rows == 6
        assert len(drawn) == draws

    def test_request_spans_stay_with_their_request(self, server_url, cycle_id, prepared):
        service, structure_id = prepared
        telemetry.reset_tracer()
        for _ in range(50):
            service.answers("t", structure_id, query="scoped")
        direct = service.answers("t", structure_id, query="scoped", explain=True)
        assert [root["name"] for root in direct.explain["spans"]] == ["server.answers"]
        status, body, _ = _request(
            server_url + "/v1/answers",
            {"tenant": "t", "structure_id": cycle_id, "query": "scoped",
             "explain": True},
        )
        assert status == 200
        assert [root["name"] for root in body["explain"]["spans"]] == ["server.request"]
        assert telemetry.finished_spans() == ()


class TestMetricsNegotiation:
    def test_default_stays_json(self, server_url):
        status, body, headers = _request(server_url + "/metrics")
        assert status == 200
        assert "application/json" in headers["Content-Type"]
        assert body["wire_version"] == wire.WIRE_VERSION

    def test_accept_header_selects_prometheus(self, server_url, cycle_id):
        request = urllib.request.Request(
            server_url + "/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert "text/plain; version=0.0.4" in response.headers["Content-Type"]
            text = response.read().decode()
        families = parse_exposition(text)  # strict: raises on malformed output
        assert families["server_requests_total"]["type"] == "counter"
        tenant_series = [
            key
            for key in families["server_requests_total"]["samples"]
            if 'tenant="t"' in key
        ]
        assert tenant_series

    def test_query_param_overrides_accept(self, server_url):
        request = urllib.request.Request(
            server_url + "/metrics?format=prometheus",
            headers={"Accept": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            text = response.read().decode()
        assert parse_exposition(text)
        status, body, _ = _request(server_url + "/metrics?format=json")
        assert status == 200
        assert "requests_served" in body


class TestConcurrentTraceIsolation:
    def test_hammering_tenants_never_cross_traces(self, server_url, cycle_id):
        # Satellite: 8 threads x 2 tenants, every span tree exactly one
        # trace id, no span adopted across tenants.
        rounds = 5
        failures: list[str] = []
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            tenant = f"iso-{worker % 2}"
            barrier.wait()
            for round_no in range(rounds):
                trace_id = f"{worker:02d}{round_no:02d}abcd"
                status, body, headers = _request(
                    server_url + "/v1/answers",
                    {
                        "tenant": tenant,
                        "structure_id": cycle_id,
                        "formula": "exists y. E(x, y)",
                        "explain": True,
                        "trace_id": trace_id,
                    },
                )
                if status != 200:
                    failures.append(f"{trace_id}: status {status}")
                    continue
                if body["trace_id"] != trace_id:
                    failures.append(f"{trace_id}: echoed {body['trace_id']}")
                if headers.get("X-Trace-Id") != trace_id:
                    failures.append(f"{trace_id}: header {headers.get('X-Trace-Id')}")
                for root in body["explain"]["spans"]:
                    ids = _span_trace_ids(root)
                    if ids != {trace_id}:
                        failures.append(f"{trace_id}: span tree carried {ids}")

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []


class TestAccessLogJoins:
    def _service(self) -> tuple[QueryService, AccessLog, str]:
        log = AccessLog(slow_ms=0.0)
        service = QueryService(trace_sample=1.0, access_log=log)
        structure_id = service.add_structure(undirected_cycle(6), tenant="t")
        service.prepare("t", "exists y. E(x, y)", name="q", structure_id=structure_id)
        return service, log, structure_id

    def test_every_request_logs_one_line(self):
        service, log, structure_id = self._service()
        service.answers("t", structure_id, query="q", trace_id="aa01")
        service.answers("t", structure_id, formula="E(x, y)", trace_id="aa02")
        entries = log.recent()
        assert [entry["trace_id"] for entry in entries] == ["aa01", "aa02"]
        assert entries[0]["query_hash"] is not None
        assert entries[0]["tenant"] == "t"
        assert entries[0]["status"] == 200
        assert entries[0]["outcome"] == "ok"
        assert entries[0]["rows"] == 6
        assert entries[0]["budget_rows_spent"] is None  # no budget set
        assert "engine" in entries[0]["breakers"]

    def test_refusal_logged_with_trace_id(self):
        service, log, structure_id = self._service()
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            service.answers(
                "t", structure_id, formula="E(x, y)", max_rows=1, trace_id="bb01"
            )
        (entry,) = log.recent()
        assert entry["trace_id"] == "bb01"
        assert entry["status"] == 429
        assert entry["outcome"] == "refused"
        assert entry["budget_rows_spent"] is not None

    def test_degradations_resolve_to_request_trace_ids(self):
        # The acceptance-criteria join: every degradation event in the log
        # belongs to the exact request whose line carries it.
        service, log, structure_id = self._service()
        # Distinct formulas per request: cache hits never reach a rung, so
        # a repeated prepared query would see no faults at all.
        texts = [
            "E(x, y)",
            "exists y. E(x, y)",
            "forall y. E(x, y)",
            "E(x, y) & E(y, x)",
            "E(x, y) | E(y, x)",
            "~(E(x, x))",
            "exists z. (E(x, z) & E(z, y))",
            "forall z. (E(x, z) -> E(z, y))",
        ]
        for index, text in enumerate(texts):
            service.prepare("t", text, name=f"q{index}", structure_id=structure_id)
        set_injector(FaultInjector(period=2))
        try:
            for index in range(len(texts)):
                service.answers(
                    "t", structure_id, query=f"q{index}", trace_id=f"cc{index:02d}"
                )
        finally:
            reset_injector()
        entries = log.recent()
        assert len(entries) == 8
        degraded = [entry for entry in entries if entry["degradations"]]
        assert degraded, "period-2 fault injection must force degradations"
        for entry in degraded:
            for event in entry["degradations"]:
                assert event["trace_id"] == entry["trace_id"]
                assert event["rung"]

    def test_concurrent_reads_keep_their_own_degradations(self):
        # Two threads read one prepared query on one tenant, re-executing
        # every time, while injected faults degrade many of the reads.
        # Each event must land on the line of the request that caused it,
        # never on the line of the request running beside it.
        log = AccessLog()
        service = QueryService(trace_sample=1.0, access_log=log)
        structure_id = service.add_structure(random_graph(10, 0.3, seed=0), tenant="t")
        structure = service.structure(structure_id)
        service.prepare(
            "t",
            "exists y exists z (E(x, y) & E(y, z) & ~E(x, z))",
            name="q",
            structure_id=structure_id,
        )
        reads, barrier, failures = 60, threading.Barrier(2), []

        def reader():
            try:
                barrier.wait(timeout=30)
                for _ in range(reads):
                    service.engine.invalidate(structure)
                    service.answers("t", structure_id, query="q")
            except Exception as error:  # noqa: BLE001 — reported below
                failures.append(error)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        set_injector(FaultInjector(period=3))
        sys.setswitchinterval(1e-5)  # interleave the two requests often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            reset_injector()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        entries = log.recent()
        assert len(entries) == 2 * reads
        events = [(entry, event) for entry in entries for event in entry["degradations"]]
        assert events, "period-3 fault injection must force degradations"
        misattributed = [
            event for entry, event in events if event["trace_id"] != entry["trace_id"]
        ]
        assert misattributed == []
        assert service.tenant("t").snapshot()["degradations"] == len(events)

    def test_batched_prepared_reads_degrade_into_the_batch_line(self):
        # A batched prepared read runs the tenant's chain as a single one
        # does, so its degradations land in the batch's one log line.
        service, log, structure_id = self._service()
        texts = ["E(x, y)", "forall y. E(x, y)", "E(x, y) & E(y, x)", "~(E(x, x))"]
        for index, text in enumerate(texts):
            service.prepare("t", text, name=f"b{index}", structure_id=structure_id)
        requests = [
            {"structure_id": structure_id, "query": f"b{index}"}
            for index in range(len(texts))
        ]
        set_injector(FaultInjector(period=2))
        try:
            service.answers_batch("t", requests, trace_id="dd01")
        finally:
            reset_injector()
        (entry,) = log.recent()
        assert entry["op"] == "answers_batch"
        assert entry["trace_id"] == "dd01"
        assert entry["degradations"], "period-2 fault injection must force degradations"
        for event in entry["degradations"]:
            assert event["trace_id"] == "dd01"
            assert event["rung"] == "engine"
        assert set(entry["breakers"]) == {"engine", "bounded-degree", "naive"}
