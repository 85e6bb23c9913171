"""Answer pages are served as text, and the text is the reference bytes.

A served page is its envelope dumped with sorted keys, with the page's
row texts spliced in at ``rows``: the texts the engine's answer record
keeps beside its page order, or, for rows that are not a record's, the
page's rows rendered when the response is written.  Every body must be
exactly ``json.dumps(reference, sort_keys=True).encode()`` of the page
built from the naive evaluator's answers through
:func:`repro.server.wire.answers_to_wire`, and a warm read renders no
row at all.
"""

from __future__ import annotations

import http.client
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.logic.signature import GRAPH
from repro.logic.syntax import Var
from repro.resilience.faults import reset_injector, set_injector
from repro.server import wire
from repro.server.http import serve
from repro.server.service import QueryService
from repro.structures.builders import random_graph
from repro.structures.structure import Structure

#: Prepared queries: one per maintenance tier, one outside every tier, a
#: reordered schema, a widened one, and a name holding the text a search
#: of the dumped envelope for ``"rows"`` would find first.
PREPARED = {
    "qf": ("E(x, y) & ~E(y, x)", None),
    "local": ("exists y. (E(x, y) & E(y, x))", None),
    "hanf": ("forall y. (E(x, y) -> E(y, x))", None),
    "unmaintained": ("exists z. (E(x, z) & E(z, y))", None),
    "reordered": ("E(x, y) & ~E(y, x)", ["y", "x"]),
    "widened": ("exists y. E(x, y)", ["x", "w"]),
    'odd "rows": null, \\ é': ("E(x, x)", None),
    "rows": ("E(x, y) & E(y, x)", None),
}
TRACE = "00ff"

#: Strings a JSON encoder must escape: quotes, backslashes, control
#: characters, non-ASCII and astral code points.
awkward = st.one_of(
    st.just('"rows": null'),
    st.text(
        alphabet=st.one_of(
            st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", " ", "é", "\U0001f600"]),
            st.characters(blacklist_categories=("Cs",)),
        ),
        max_size=6,
    ),
)


@st.composite
def universes(draw) -> list:
    kind = draw(st.sampled_from(["int", "str", "tagged"]))
    size = draw(st.integers(2, 5))
    if kind == "int":
        return list(range(size))
    if kind == "str":
        return draw(st.lists(awkward, min_size=size, max_size=size, unique=True))
    values = st.one_of(st.integers(0, 9), awkward)
    parts = draw(st.lists(values, min_size=size, max_size=size, unique=True))
    return [(index % 2, part) for index, part in enumerate(parts)]


@pytest.fixture(scope="module")
def server_address():
    server, thread = serve(QueryService())
    yield server.server_address[:2]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


_tenants = itertools.count()


class _Client:
    """One keep-alive connection; :meth:`post` returns the raw body."""

    def __init__(self, address) -> None:
        self.connection = http.client.HTTPConnection(*address, timeout=30)

    def post(self, path: str, payload: dict) -> bytes:
        self.connection.request(
            "POST", path, json.dumps(payload), {"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        raw = response.read()
        assert response.status == 200, raw
        return raw


def _rows(structure: Structure, text: str, schema: list[str] | None) -> frozenset:
    formula = parse(text)
    order = None if schema is None else tuple(Var(name) for name in schema)
    return naive_answers(structure, formula, order)


def _reference(rows: frozenset, page: int, size: int, query, structure_id, schema) -> dict:
    """The page the reference encoder makes of the naive answers."""
    encoded = wire.answers_to_wire(rows)
    size = min(size, 4096)
    return {
        "rows": encoded[page * size : (page + 1) * size],
        "page": page,
        "page_size": size,
        "total_rows": len(encoded),
        "has_more": (page + 1) * size < len(encoded),
        "free_variables": schema,
        "query": query,
        "structure_id": structure_id,
    }


def _dumped(reference: dict) -> bytes:
    return json.dumps(reference, sort_keys=True).encode()


@settings(max_examples=30, deadline=None)
@given(universe=universes(), data=st.data())
def test_served_bodies_are_the_reference_bytes(server_address, universe, data):
    """Single reads (the whole set, one row, a page past the end), a
    batch with an ad-hoc widened item, and ``explain`` reads, before and
    after each batch of writes."""
    pairs = st.tuples(st.sampled_from(universe), st.sampled_from(universe))
    initial = data.draw(st.sets(pairs, max_size=8))
    write = st.tuples(st.sampled_from(["insert", "delete"]), pairs)
    writes = st.lists(write, min_size=1, max_size=3)
    batches = data.draw(st.lists(writes, max_size=3))
    structure = Structure(GRAPH, universe, {"E": initial})
    tenant = f"bytes-{next(_tenants)}"
    client = _Client(server_address)
    try:
        upload = {"tenant": tenant, "structure": wire.structure_to_dict(structure)}
        structure_id = json.loads(client.post("/v1/structures", upload))["structure_id"]
        schemas = {}
        for name, (text, schema) in PREPARED.items():
            prepared = json.loads(client.post("/v1/queries", {
                "tenant": tenant, "name": name, "formula": text,
                "structure_id": structure_id, "free_variables": schema,
            }))
            schemas[name] = prepared["free_variables"]
        for batch in [None, *batches]:
            if batch is not None:
                deltas = [(op, "E", row) for op, row in batch]
                for op, _, row in deltas:
                    (structure.insert if op == "insert" else structure.delete)("E", row)
                update = {"tenant": tenant, "updates": wire.updates_to_wire(deltas)}
                path = f"/v1/structures/{structure_id}/updates"
                structure_id = json.loads(client.post(path, update))["structure_id"]
            body = {"tenant": tenant, "structure_id": structure_id, "trace_id": TRACE}
            answers = {
                name: _rows(structure, text, schema) for name, (text, schema) in PREPARED.items()
            }
            for name, rows in answers.items():
                one = data.draw(st.integers(0, max(len(rows), 1)))
                for page, size in ((0, 4096), (one, 1), (len(rows) + 3, 1)):
                    raw = client.post(
                        "/v1/answers", {**body, "query": name, "page": page, "page_size": size}
                    )
                    expected = _reference(rows, page, size, name, structure_id, schemas[name])
                    assert raw == _dumped({**expected, "trace_id": TRACE}), name

            size = data.draw(st.sampled_from([1, 2, 4096]))
            widened = ["y", "z", "x"]
            items = [{"structure_id": structure_id, "query": name} for name in PREPARED]
            items.append(
                {"structure_id": structure_id, "formula": "E(x, y)", "free_variables": widened}
            )
            raw = client.post(
                "/v1/answers",
                {"tenant": tenant, "requests": items, "page_size": size, "trace_id": TRACE},
            )
            results = [
                _reference(rows, 0, size, name, structure_id, schemas[name])
                for name, rows in answers.items()
            ]
            adhoc = _rows(structure, "E(x, y)", widened)
            results.append(_reference(adhoc, 0, size, None, structure_id, widened))
            assert raw == _dumped({"results": results, "trace_id": TRACE})

            # The explain payload is the server's own; the rows are spliced.
            name = 'odd "rows": null, \\ é'
            text = "exists y. (E(x, y) & E(y, x))"
            for item, rows, query, schema in (
                ({"query": name}, answers[name], name, schemas[name]),
                ({"formula": text}, _rows(structure, text, None), None, ["x"]),
            ):
                raw = client.post(
                    "/v1/answers", {**body, **item, "explain": True, "page_size": 1}
                )
                expected = _reference(rows, 0, 1, query, structure_id, schema)
                explain = json.loads(raw)["explain"]
                assert raw == _dumped({**expected, "explain": explain, "trace_id": TRACE})
    finally:
        client.connection.close()


def test_splice_places_the_value_by_key_position():
    """Keys that sort before and after the spliced key, values holding
    its text, an empty side, and escapes: the same bytes as one dump."""
    cases = [
        {},
        {"a": 1},
        {"z": "x"},
        {"query": "rows", "structure_id": '"rows": null', "explain": {"rows": None, "b": [3]}},
        {"page": 0, "é": " \x00\"\\", "trace_id": "ab"},
    ]
    value = [[{"t": [0, "é\""]}], [1]]
    for envelope in cases:
        spliced = wire.splice(envelope, "rows", json.dumps(value))
        assert spliced == json.dumps({**envelope, "rows": value}, sort_keys=True)


def test_element_texts_match_json_dumps():
    texts = wire.ElementTexts()
    for element in (0, -7, 10**30, "", '"\\\n\x00 \U0001f600', (0, 1), (1, ("a", (2,)))):
        assert texts[element] == json.dumps(wire.encode_element(element))
    rows = [(), (0,), ((1, "x"), "yé")]
    assert texts.render(rows) == [json.dumps(row) for row in wire.encode_rows(rows)]


@pytest.fixture()
def rendered(monkeypatch) -> list:
    """The size of every batch of rows rendered to text."""
    sizes: list = []
    render = wire.ElementTexts.render

    def counted(texts, rows):
        sizes.append(len(rows))
        return render(texts, rows)

    monkeypatch.setattr(wire.ElementTexts, "render", counted)
    return sizes


@pytest.fixture()
def no_faults():
    """Injection off: an injected fault sends a read down the fallback
    chain, whose rows are not the record's, so it renders its page."""
    set_injector(None)
    yield
    reset_injector()


MAINTAINED = ("qf", "local", "hanf")


def test_warm_reads_render_nothing_and_writes_render_what_changed(rendered, no_faults):
    structure = random_graph(12, 0.3, seed=3)
    service = QueryService()
    structure_id = service.add_structure(structure)
    for name in MAINTAINED:
        service.prepare("t", PREPARED[name][0], name=name, structure_id=structure_id)

    def read_all() -> dict[str, frozenset]:
        served = {}
        for name in MAINTAINED:
            page = service.answers("t", structure_id, query=name, page_size=4096)
            assert json.loads(page.to_json())["rows"] == wire.answers_to_wire(frozenset(page.rows))
            served[name] = frozenset(page.rows)
        return served

    before = read_all()
    assert sum(rendered) == sum(len(rows) for rows in before.values())  # first reads
    rendered.clear()
    assert read_all() == before
    assert rendered == []  # warm
    edges = structure.relations["E"]
    absent = next((b, a) for a, b in sorted(edges) if (b, a) not in edges)

    def write(op: str) -> None:
        nonlocal structure_id
        structure_id = service.apply_updates("t", structure_id, [(op, "E", absent)])["structure_id"]

    # A Hanf record starts light: the first write promotes it through a
    # recompute, whose new record renders all its rows on its next read.
    write("insert")
    before = read_all()
    added = 0
    for op in ("delete", "insert", "delete"):
        patched = service.engine.stats.answers_patched
        write(op)
        rendered.clear()
        after = read_all()
        assert service.engine.stats.answers_patched == patched + len(MAINTAINED)
        assert sum(rendered) <= sum(len(after[name] ^ before[name]) for name in MAINTAINED)
        added += sum(len(after[name] - before[name]) for name in MAINTAINED)
        before = after
    assert added > 0  # rows were added, so the bound above was not vacuous
