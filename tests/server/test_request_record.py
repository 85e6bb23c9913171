"""One request record, counted once: the tenant's account, the
``server.requests`` series, ``requests_served`` and the access log all
read the record the request envelope settles."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import telemetry
from repro.errors import BudgetExceededError, ServerError
from repro.resilience.faults import reset_injector, set_injector
from repro.server.service import QueryService
from repro.structures.builders import undirected_cycle
from repro.telemetry import metrics as metrics_module
from repro.telemetry.logs import AccessLog
from repro.telemetry.prometheus import parse_exposition

#: ``undirected_cycle(6)``: E(x, y) has 12 rows, ∃y E(x, y) has 6.
EDGES, HAS_EDGE = "E(x, y)", "exists y. E(x, y)"


@pytest.fixture()
def no_faults():
    """Injection off: an injected fault would turn an ad-hoc read into a
    503 refusal and move the counts this file pins."""
    set_injector(None)
    yield
    reset_injector()


def _serve(tenants: tuple[str, ...], log: AccessLog | None = None):
    service = QueryService(access_log=log)
    structure_id = service.add_structure(undirected_cycle(6))
    for tenant in tenants:
        service.prepare(tenant, HAS_EDGE, name="q", structure_id=structure_id)
    return service, structure_id


def _request_samples(service: QueryService) -> dict[str, float]:
    families = parse_exposition(service.metrics_prometheus())
    return families["server_requests_total"]["samples"]


def _fail_the_chain(monkeypatch, service: QueryService, tenant: str) -> None:
    def boom(*args, **kwargs):
        raise RuntimeError("a bug in a rung")

    monkeypatch.setattr(service.tenant(tenant).chain, "answers", boom)


def test_requests_served_series_and_log_lines_agree(monkeypatch, no_faults):
    # Another service in the process, serving the same tenant name, must
    # not show in this service's series.
    other, other_id = _serve(("mixed",))
    other.answers("mixed", other_id, query="q")
    log = AccessLog()
    service, structure_id = _serve(("mixed",), log)
    service.answers("mixed", structure_id, query="q")
    service.answers("mixed", structure_id, formula=EDGES)
    service.answers_batch(
        "mixed", [{"structure_id": structure_id, "query": "q"}] * 3
    )
    with pytest.raises(BudgetExceededError):
        service.answers("mixed", structure_id, formula=EDGES, max_rows=1)
    with pytest.raises(ServerError):
        service.answers("mixed", structure_id, query="q", page=-1)
    update = [{"op": "insert", "relation": "E", "row": [0, 2]}]
    structure_id = service.apply_updates("mixed", structure_id, update)["structure_id"]
    _fail_the_chain(monkeypatch, service, "mixed")
    with pytest.raises(RuntimeError):
        service.answers("mixed", structure_id, query="q")

    samples = _request_samples(service)
    assert service.health()["requests_served"] == 7
    assert service.metrics()["requests_served"] == 7
    assert sum(samples.values()) == 7
    assert len(log.recent()) == 7
    assert samples == {
        'server_requests_total{outcome="ok",tenant="mixed"}': 4,
        'server_requests_total{outcome="refused",tenant="mixed"}': 1,
        'server_requests_total{outcome="error",tenant="mixed"}': 2,
    }
    assert [entry["status"] for entry in log.recent()] == [
        200, 200, 200, 429, 400, 200, 500
    ]
    counters = service.metrics()["tenants"]["mixed"]["counters"]
    assert counters["requests"] == 9  # the batch counts its 3 items
    assert (counters["answered"], counters["refused"], counters["errors"]) == (5, 1, 2)
    assert counters["rows_returned"] == 6 + 12 + 3 * 6
    assert counters["updates_applied"] == 1
    assert counters["batch_requests"] == 1


def test_an_untyped_failure_counts_as_a_tenant_error(monkeypatch, no_faults):
    log = AccessLog()
    service, structure_id = _serve(("errors-500",), log)
    _fail_the_chain(monkeypatch, service, "errors-500")
    with pytest.raises(RuntimeError):
        service.answers("errors-500", structure_id, query="q")
    counters = service.tenant("errors-500").snapshot()["counters"]
    assert (counters["requests"], counters["errors"], counters["answered"]) == (1, 1, 0)
    assert _request_samples(service) == {
        'server_requests_total{outcome="ok",tenant="errors-500"}': 0,
        'server_requests_total{outcome="refused",tenant="errors-500"}': 0,
        'server_requests_total{outcome="error",tenant="errors-500"}': 1,
    }
    (entry,) = log.recent()
    assert (entry["status"], entry["outcome"]) == (500, "error")


def test_each_service_exposes_its_own_gauges(no_faults):
    first, first_id = _serve(("gauges-a", "gauges-b"))
    second, _ = _serve(("gauges-c",))
    first.answers("gauges-a", first_id, query="q")

    def gauges(service):
        families = parse_exposition(service.metrics_prometheus())
        return {
            family: sum(families[family]["samples"].values())
            for family in ("server_tenants", "server_requests_served")
        }

    assert gauges(first) == {"server_tenants": 2, "server_requests_served": 1}
    assert gauges(second) == {"server_tenants": 1, "server_requests_served": 0}
    assert gauges(first) == {"server_tenants": 2, "server_requests_served": 1}
    for service in (first, second):
        held = service.metrics()["telemetry"]["gauges"]
        assert [key for key in held if key.startswith("server.")] == []


@pytest.mark.parametrize("enabled", [True, False], ids=["telemetry", "no-telemetry"])
def test_update_counts_stay_on_their_tenant(no_faults, enabled):
    """An update's no-op deltas and dirtied queries count on its tenant,
    not in the process-wide registry, where every service in the
    process would show them."""
    was_enabled = telemetry.is_enabled()
    telemetry.enable() if enabled else telemetry.disable()
    try:
        first, first_id = _serve(("writer",))
        first.prepare("writer", EDGES, name="edges", structure_id=first_id)
        second, _ = _serve(())
        result = first.apply_updates("writer", first_id, [
            {"op": "insert", "relation": "E", "row": [0, 2]},
            {"op": "insert", "relation": "E", "row": [0, 1]},  # already there
        ])
    finally:
        telemetry.enable() if was_enabled else telemetry.disable()
    for service in (first, second):
        held = service.metrics()["telemetry"]["counters"]
        assert [key for key in held if key.startswith("incremental.updates.")] == []
    assert (result["applied"], result["noops"]) == (1, 1)
    assert "edges" in result["queries_dirtied"]
    counters = first.metrics()["tenants"]["writer"]["counters"]
    assert (counters["updates_applied"], counters["update_noops"]) == (1, 1)
    assert counters["queries_dirtied"] == len(result["queries_dirtied"])


@pytest.mark.parametrize("enabled", [True, False], ids=["telemetry", "no-telemetry"])
def test_warm_prepared_reads_build_no_labeled_key(monkeypatch, no_faults, enabled):
    was_enabled = telemetry.is_enabled()
    telemetry.enable() if enabled else telemetry.disable()
    try:
        service, structure_id = _serve(("labels",))
        service.answers("labels", structure_id, query="q")  # cold: fills the caches
        labeled = []
        build = metrics_module.labeled_key

        def counting(name, labels):
            if labels:
                labeled.append(name)
            return build(name, labels)

        monkeypatch.setattr(metrics_module, "labeled_key", counting)
        page = service.answers("labels", structure_id, query="q")
    finally:
        telemetry.enable() if was_enabled else telemetry.disable()
    assert page.total_rows == 6
    assert labeled == []
    assert service.health()["requests_served"] == 2


def test_concurrent_requests_leave_exact_counts(no_faults):
    tenants = ("pool-0", "pool-1")
    log = AccessLog()
    service, structure_id = _serve(tenants, log)
    rounds, barrier, failures = 5, threading.Barrier(8), []
    read = {"structure_id": structure_id, "formula": EDGES}

    def mix(tenant: str) -> None:
        service.answers(tenant, structure_id, query="q")  # ok, 6 rows
        service.answers(tenant, structure_id, formula=EDGES)  # ok, 12 rows
        with pytest.raises(BudgetExceededError):  # 429
            service.answers(tenant, structure_id, formula=EDGES, max_rows=1)
        with pytest.raises(ServerError):  # 400
            service.answers(tenant, structure_id, formula=EDGES, page=-1)
        service.answers_batch(  # ok, 2 items, 18 rows
            tenant, [{"structure_id": structure_id, "query": "q"}, read]
        )
        with pytest.raises(BudgetExceededError):  # 429, 2 items
            service.answers_batch(tenant, [read, read], max_rows=1)
        with pytest.raises(ServerError):  # 400, 2 items
            service.answers_batch(tenant, [read, {"structure_id": structure_id}])

    def worker(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            for _ in range(rounds):
                mix(tenants[index % 2])
        except BaseException as error:  # noqa: BLE001 — reported below
            failures.append(error)

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the settles often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []

    mixes = 4 * rounds  # per tenant: 4 threads, each `rounds` mixes
    metrics = service.metrics()
    families = parse_exposition(service.metrics_prometheus())
    for tenant in tenants:
        counters = {
            key: metrics["tenants"][tenant]["counters"][key]
            for key in (
                "requests", "answered", "refused", "errors", "rows_returned",
                "batch_requests",
            )
        }
        assert counters == {
            "requests": 10 * mixes,
            "answered": 4 * mixes,
            "refused": 3 * mixes,
            "errors": 3 * mixes,
            "rows_returned": 36 * mixes,
            "batch_requests": 3 * mixes,
        }
        for outcome, count in (("ok", 3), ("refused", 2), ("error", 2)):
            series = f'server_requests_total{{outcome="{outcome}",tenant="{tenant}"}}'
            assert families["server_requests_total"]["samples"][series] == count * mixes
        durations = families["server_request_ms"]["samples"]
        assert durations[f'server_request_ms_count{{tenant="{tenant}"}}'] == 7 * mixes
    served = 2 * 7 * mixes
    assert metrics["requests_served"] == served
    assert sum(families["server_requests_total"]["samples"].values()) == served
    assert len(log.recent()) == served
