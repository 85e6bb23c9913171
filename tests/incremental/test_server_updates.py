"""``POST /v1/structures/<id>/updates``: batched deltas over the wire.

Content addressing under mutation: the service applies a validated
batch, re-registers the structure under its new digest, and retires the
old id (a 409 names the structure's current id, for a bounded number of
recently retired ids).  The batch is
atomic — one bad delta rejects the whole request with nothing applied —
and rides the same admission control as answers (per-delta row charges,
429 refusals, readonly replicas answer 403).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    BudgetExceededError,
    ServerError,
    SignatureError,
    StructureError,
    UnknownResourceError,
)
from repro.resilience.budget import Budget
from repro.server import service as service_module
from repro.server import wire
from repro.server.http import _updates_target, serve
from repro.server.service import QueryService
from repro.structures.builders import directed_cycle


@pytest.fixture()
def service() -> QueryService:
    return QueryService()


@pytest.fixture()
def cycle_id(service: QueryService) -> str:
    return service.add_structure(directed_cycle(4), tenant="t1")


def _delta(op: str, row) -> dict:
    return {"op": op, "relation": "E", "row": list(row)}


# -- the service layer -------------------------------------------------------


def test_updates_re_register_under_the_new_digest(service, cycle_id):
    result = service.apply_updates(
        "t1", cycle_id, [_delta("insert", (0, 2)), _delta("delete", (0, 1))]
    )
    assert result["applied"] == 2
    assert result["noops"] == 0
    assert result["epoch"] == 2
    assert result["previous_id"] == cycle_id
    new_id = result["structure_id"]
    assert new_id != cycle_id
    mutated = service.structure(new_id)
    assert wire.structure_digest(mutated) == new_id
    assert (0, 2) in mutated.relations["E"]
    assert (0, 1) not in mutated.relations["E"]


def test_superseded_id_is_a_409_naming_the_successor(service, cycle_id):
    new_id = service.apply_updates("t1", cycle_id, [_delta("insert", (0, 2))])[
        "structure_id"
    ]
    with pytest.raises(ServerError) as excinfo:
        service.structure(cycle_id)
    assert excinfo.value.status == 409
    assert new_id in str(excinfo.value)


def test_409_names_the_current_id_after_a_chain_of_updates(service, cycle_id):
    second = service.apply_updates("t1", cycle_id, [_delta("insert", (0, 2))])
    third = service.apply_updates(
        "t1", second["structure_id"], [_delta("insert", (1, 3))]
    )
    current = third["structure_id"]
    for retired in (cycle_id, second["structure_id"]):
        with pytest.raises(ServerError) as excinfo:
            service.structure(retired)
        assert excinfo.value.status == 409
        assert current in str(excinfo.value)


def test_superseded_map_is_capped(service, monkeypatch):
    monkeypatch.setattr(service_module, "SUPERSEDED_LIMIT", 4)
    current = _bigger_cycle_id(service)
    retired = []
    for target in range(2, 12):
        retired.append(current)
        current = service.apply_updates(
            "t1", current, [_delta("insert", (0, target))]
        )["structure_id"]
    assert len(service._superseded) == 4
    # The most recently retired ids still 409; the oldest are forgotten.
    with pytest.raises(ServerError) as excinfo:
        service.structure(retired[-1])
    assert excinfo.value.status == 409
    assert current in str(excinfo.value)
    with pytest.raises(UnknownResourceError):
        service.structure(retired[0])


def test_bool_row_element_is_a_400_that_leaves_the_store_untouched(service, cycle_id):
    """JSON ``true`` decodes to ``True == 1``, which used to pass the
    universe check, be applied, and only then fail to encode."""
    before = service.structure(cycle_id)
    rows = before.relations["E"]
    with pytest.raises(StructureError):
        service.apply_updates(
            "t1", cycle_id, [{"op": "insert", "relation": "E", "row": [True, 3]}]
        )
    with pytest.raises(StructureError):
        service.apply_updates("t1", cycle_id, [("insert", "E", (True, 3))])
    after = service.structure(cycle_id)
    assert after is before
    assert after.epoch == 0
    assert after.relations["E"] == rows
    assert wire.structure_digest(after) == cycle_id


def test_noop_batch_keeps_the_id(service, cycle_id):
    result = service.apply_updates(
        "t1", cycle_id, [_delta("insert", (0, 1)), _delta("delete", (0, 2))]
    )
    assert result["structure_id"] == cycle_id
    assert result["applied"] == 0
    assert result["noops"] == 2
    service.structure(cycle_id)  # still addressable


def test_round_trip_resurrects_the_original_id(service, cycle_id):
    step = service.apply_updates("t1", cycle_id, [_delta("insert", (0, 2))])
    back = service.apply_updates(
        "t1", step["structure_id"], [_delta("delete", (0, 2))]
    )
    assert back["structure_id"] == cycle_id
    # The resurrected id must serve again, not 409 on its own past.
    assert service.structure(cycle_id).epoch == 2


def test_one_bad_delta_rejects_the_batch_atomically(service, cycle_id):
    before = service.structure(cycle_id)
    snapshot = dict(before.relations)
    with pytest.raises(SignatureError):
        service.apply_updates(
            "t1",
            cycle_id,
            [_delta("insert", (0, 2)), {"op": "insert", "relation": "Q", "row": [0]}],
        )
    assert service.structure(cycle_id).relations == snapshot
    assert service.structure(cycle_id).epoch == 0


def test_empty_batch_is_a_400(service, cycle_id):
    with pytest.raises(Exception) as excinfo:
        service.apply_updates("t1", cycle_id, [])
    assert getattr(excinfo.value, "status", 400) == 400


def test_row_budget_refusal_is_atomic(service, cycle_id):
    service.register_tenant("tight", budget=Budget(max_rows=1))
    with pytest.raises(BudgetExceededError):
        service.apply_updates(
            "tight", cycle_id, [_delta("insert", (0, 2)), _delta("insert", (1, 3))]
        )
    # The whole batch is charged before anything is applied, so a 429
    # leaves the store byte-identical: the old id still serves.
    assert service.structure(cycle_id).epoch == 0
    assert service.tenant("tight").counters["refused"] == 1
    # A batch within the envelope goes through.
    result = service.apply_updates("tight", cycle_id, [_delta("insert", (0, 2))])
    assert result["applied"] == 1


def test_readonly_service_answers_403():
    replica = QueryService(readonly=True)
    sid = replica.add_structure(directed_cycle(4), tenant="t1")
    with pytest.raises(ServerError) as excinfo:
        replica.apply_updates("t1", sid, [_delta("insert", (0, 2))])
    assert excinfo.value.status == 403
    assert replica.structure(sid).epoch == 0


def test_updates_show_up_in_tenant_counters(service, cycle_id):
    service.apply_updates("t1", cycle_id, [_delta("insert", (0, 2))])
    session = service.tenant("t1")
    assert session.counters["updates_applied"] == 1


# -- wire codec --------------------------------------------------------------


def test_updates_wire_round_trip():
    deltas = [("insert", "E", (0, (1, "a"))), ("delete", "E", (2, 3))]
    assert wire.updates_from_wire(wire.updates_to_wire(deltas)) == deltas


@pytest.mark.parametrize(
    "payload",
    [
        [],
        "not a list",
        [{"op": "upsert", "relation": "E", "row": [0, 1]}],
        [{"op": "insert", "relation": 3, "row": [0, 1]}],
        [{"op": "insert", "relation": "E", "row": "01"}],
    ],
)
def test_updates_wire_rejects_malformed_payloads(payload):
    from repro.errors import StructureError

    with pytest.raises(StructureError):
        wire.updates_from_wire(payload)


# -- routing and HTTP --------------------------------------------------------


@pytest.mark.parametrize(
    ("path", "target"),
    [
        ("/v1/structures/s-abc/updates", "s-abc"),
        ("/v1/structures//updates", None),
        ("/v1/structures/s-abc", None),
        ("/v1/structures/s-abc/updates/extra", None),
        ("/v2/structures/s-abc/updates", None),
    ],
)
def test_updates_target_parsing(path, target):
    assert _updates_target(path) == target


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


# -- queries_dirtied: which prepared answer sets moved (ISSUE 10) ------------


def _bigger_cycle_id(service: QueryService) -> str:
    return service.add_structure(directed_cycle(12), tenant="t1")


def test_updates_report_dirtied_prepared_queries(service):
    sid = _bigger_cycle_id(service)
    service.prepare(
        "t1", "exists y. (E(x, y) & E(y, x))", name="mutual", structure_id=sid
    )
    service.prepare("t1", "exists y. E(x, y)", name="outdeg", structure_id=sid)
    service.answers("t1", sid, query="mutual")
    service.answers("t1", sid, query="outdeg")
    # A chord adds no mutual edge and every element already had a successor.
    result = service.apply_updates("t1", sid, [_delta("insert", (0, 5))])
    assert result["queries_dirtied"] == []
    # Closing a 2-cycle changes `mutual` (0 and 1 join) but not `outdeg`.
    result = service.apply_updates(
        "t1", result["structure_id"], [_delta("insert", (1, 0))]
    )
    assert result["queries_dirtied"] == ["mutual"]


def test_never_queried_prepared_queries_are_conservatively_dirtied(service):
    sid = _bigger_cycle_id(service)
    service.prepare("t1", "exists y. E(x, y)", name="cold", structure_id=sid)
    # No answers call: there is no maintained record to patch, so the
    # service cannot prove the answer set unchanged — report it dirtied.
    result = service.apply_updates("t1", sid, [_delta("insert", (0, 5))])
    assert result["queries_dirtied"] == ["cold"]


def test_dirtied_queries_are_per_tenant(service):
    sid = _bigger_cycle_id(service)
    service.prepare(
        "t1", "exists y. (E(x, y) & E(y, x))", name="mine", structure_id=sid
    )
    service.answers("t1", sid, query="mine")
    service.prepare(
        "t2", "exists y. (E(x, y) & E(y, x))", name="theirs", structure_id=sid
    )
    result = service.apply_updates("t1", sid, [_delta("insert", (1, 0))])
    # Only the updating tenant's queries are inspected and named.
    assert result["queries_dirtied"] == ["mine"]


def test_dirtied_computation_never_fails_an_applied_update(service, monkeypatch):
    """Budget expiry while deciding dirtiness must not 429 the request —
    the deltas are already applied by then.  The undecided queries are
    reported dirtied instead."""
    sid = _bigger_cycle_id(service)
    service.prepare(
        "t1", "exists y. (E(x, y) & E(y, x))", name="q1", structure_id=sid
    )
    service.prepare("t1", "exists y. E(x, y)", name="q2", structure_id=sid)
    service.answers("t1", sid, query="q1")

    def expired(*_args, **_kwargs):
        raise BudgetExceededError("deadline exceeded mid-maintenance")

    monkeypatch.setattr(service.engine, "maintained_changed", expired)
    result = service.apply_updates("t1", sid, [_delta("insert", (0, 5))])
    assert result["applied"] == 1
    assert result["queries_dirtied"] == ["q1", "q2"]


def test_updates_endpoint_end_to_end():
    service = QueryService()
    server, _thread = serve(service)
    try:
        sid = service.add_structure(directed_cycle(4), tenant="t1")
        status, body = _post(
            f"{server.url}/v1/structures/{sid}/updates",
            {"tenant": "t1", "updates": [_delta("insert", (0, 2))]},
        )
        assert status == 200
        assert body["applied"] == 1
        assert body["previous_id"] == sid
        assert body["wire_version"] == wire.WIRE_VERSION
        assert "trace_id" in body

        status, body = _post(
            f"{server.url}/v1/answers",
            {"tenant": "t1", "structure_id": body["structure_id"], "formula": "E(x, y)"},
        )
        assert status == 200
        assert body["total_rows"] == 5

        status, body = _post(
            f"{server.url}/v1/answers",
            {"tenant": "t1", "structure_id": sid, "formula": "E(x, y)"},
        )
        assert status == 409
        assert body["error"]["type"] == "ServerError"

        status, body = _post(
            f"{server.url}/v1/structures/{sid}/updates",
            {"tenant": "t1", "updates": "nope"},
        )
        assert status == 400
    finally:
        server.shutdown()
