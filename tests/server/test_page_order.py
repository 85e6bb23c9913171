"""Answer pages come from the order kept on the engine's answer record.

A served read pages its answer set in the canonical order
(:func:`repro.structures.structure.canonical_order`).  The order is kept
on the answer record: the record's first page read sorts, a warm read
sorts nothing, and the first read after a write brings the order
forward by bisection over the rows that changed.  Rows that are not the
record's own (a reordered schema, a profile, another rung) are sorted
as they come.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine import engine as engine_module
from repro.eval.evaluator import answers as naive_answers
from repro.incremental import answers as answer_records
from repro.logic.analysis import analyze
from repro.logic.parser import parse
from repro.logic.signature import GRAPH
from repro.resilience.faults import reset_injector, set_injector
from repro.server import wire
from repro.server.service import QueryService
from repro.structures.builders import random_graph
from repro.structures.structure import Structure, canonical_order

#: One prepared query per maintenance tier, one outside every tier, and
#: the qf query again under a reordered answer schema (its rows are not
#: the record's, so its pages sort).
QUERIES = {
    "qf": ("E(x, y) & ~E(y, x)", None),
    "local": ("exists y. (E(x, y) & E(y, x))", None),
    "hanf": ("forall y. (E(x, y) -> E(y, x))", None),
    "unmaintained": ("exists z. (E(x, z) & E(z, y))", None),
    "reordered": ("E(x, y) & ~E(y, x)", ["y", "x"]),
}


def test_queries_cover_every_tier():
    tiers = {
        name: getattr(answer_records._classify(parse(text)), "tier", None)
        for name, (text, _) in QUERIES.items()
    }
    assert tiers == {
        "qf": "qf",
        "local": "local",
        "hanf": "hanf",
        "unmaintained": None,
        "reordered": "qf",
    }


def _prepare(service: QueryService, structure_id: str) -> dict[str, list[str]]:
    """Prepare every query; return each one's answer columns."""
    return {
        name: list(
            service.prepare(
                "t", text, name=name, structure_id=structure_id, free_variables=schema
            ).free_names
        )
        for name, (text, schema) in QUERIES.items()
    }


def _pages(service: QueryService, structure_id: str, name: str, size: int) -> list[tuple]:
    """Every page of one query, concatenated, checking the paging fields."""
    rows: list[tuple] = []
    page = 0
    while True:
        result = service.answers("t", structure_id, query=name, page=page, page_size=size)
        rows.extend(result.rows)
        assert result.total_rows >= len(rows)
        assert result.has_more == ((page + 1) * size < result.total_rows)
        if not result.has_more:
            assert result.total_rows == len(rows)
            return rows
        page += 1


def _expected(structure: Structure, text: str, schema: list[str]) -> list[tuple]:
    formula = parse(text)
    natural = sorted(schema)
    rows = {
        tuple(dict(zip(natural, row))[name] for name in schema)
        for row in naive_answers(structure, formula)
    }
    return sorted(rows, key=repr)


edges = st.tuples(st.integers(0, 5), st.integers(0, 5))


@given(
    initial=st.sets(edges, max_size=14),
    batches=st.lists(
        st.lists(st.tuples(st.booleans(), edges), min_size=1, max_size=3),
        min_size=1,
        max_size=6,
    ),
)
def test_pages_follow_naive_answers_across_writes(initial, batches):
    structure = Structure(GRAPH, range(6), {"E": initial})
    service = QueryService()
    structure_id = service.add_structure(structure)
    schemas = _prepare(service, structure_id)
    for batch in [None, *batches]:
        if batch is not None:
            deltas = [("insert" if insert else "delete", "E", row) for insert, row in batch]
            structure_id = service.apply_updates("t", structure_id, deltas)["structure_id"]
        for name, (text, _) in QUERIES.items():
            expected = _expected(structure, text, schemas[name])
            assert _pages(service, structure_id, name, 3) == expected, name


@pytest.fixture()
def sorts(monkeypatch) -> list:
    """The size of every answer set sorted in full: calls of
    ``canonical_order``, through every ``repro`` module that holds it."""
    sorted_sizes: list = []

    def counted(rows):
        ordered = canonical_order(rows)
        sorted_sizes.append(len(ordered))
        return ordered

    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is canonical_order:
                monkeypatch.setattr(module, attribute, counted)
    return sorted_sizes


MAINTAINED = ("qf", "local", "hanf")


@pytest.fixture()
def no_faults():
    """Injection off: an injected fault sends a read down the fallback
    chain, whose rows are not the record's, so it sorts them."""
    set_injector(None)
    yield
    reset_injector()


def test_warm_reads_and_reads_after_a_single_delta_sort_nothing(sorts, no_faults):
    structure = random_graph(12, 0.3, seed=3)
    service = QueryService()
    structure_id = service.add_structure(structure)
    schemas = _prepare(service, structure_id)
    first = {name: _pages(service, structure_id, name, 4) for name in MAINTAINED}
    assert len(sorts) == len(MAINTAINED)  # one sort per record, on its first read
    sorts.clear()
    for name in MAINTAINED:
        assert _pages(service, structure_id, name, 4) == first[name]
    assert sorts == []
    edges = structure.relations["E"]
    # The reverse of a one-way edge: it moves the qf and local answers.
    absent = next((b, a) for a, b in sorted(edges) if (b, a) not in edges)

    def write_and_read(op: str) -> None:
        nonlocal structure_id
        structure_id = service.apply_updates("t", structure_id, [(op, "E", absent)])[
            "structure_id"
        ]
        for name in MAINTAINED:
            expected = _expected(structure, QUERIES[name][0], schemas[name])
            assert _pages(service, structure_id, name, 4) == expected, (op, name)
            if expected != first[name]:
                moved.add(name)

    # A Hanf record starts light: the first write promotes it through one
    # recompute (a new record, sorted on its next page read).  From then
    # on every write is patched.
    moved: set = set()
    write_and_read("insert")
    write_and_read("delete")
    sorts.clear()
    patched = service.engine.stats.answers_patched
    write_and_read("insert")
    write_and_read("delete")
    assert sorts == []
    assert service.engine.stats.answers_patched == patched + 2 * len(MAINTAINED)
    assert moved == {"qf", "local"}  # orders brought forward, not merely kept


def test_reads_the_record_does_not_hold_sort_as_they_come(sorts):
    """A reordered schema, an ``explain`` read and an ad-hoc read sort
    their own rows, every time."""
    service = QueryService()
    structure_id = service.add_structure(random_graph(8, 0.4, seed=1))
    _prepare(service, structure_id)
    text = QUERIES["qf"][0]
    for _ in range(2):
        sorts.clear()
        service.answers("t", structure_id, query="reordered")
        service.answers("t", structure_id, query="qf", explain=True)
        service.answers("t", structure_id, formula=text)
        assert len(sorts) == 3


def test_page_order_racing_writes_orders_the_rows_read():
    """Four readers take answers and then their page order and row
    texts, as a served read does, while a writer toggles one edge
    between the two calls, under a short switch interval.  Each order
    must be exactly the rows its reader got, and each text the render
    of the row at its index: an order or texts kept for one row set and
    served for another (the record moved on in between) would show
    here.  Rows the record no longer holds come back without texts."""
    structure = random_graph(12, 0.3, seed=3)
    engine = Engine()
    render = wire.element_texts(structure).render
    formulas = [parse(QUERIES[name][0]) for name in ("qf", "local", "hanf")]
    edges = structure.relations["E"]
    toggled = next((b, a) for a, b in sorted(edges) if (b, a) not in edges)
    done, errors, wrong, reads = threading.Event(), [], [], []

    def read():
        try:
            while not done.is_set():
                for formula in formulas:
                    rows = engine.answers(structure, formula)
                    order, texts = engine.page_order(structure, formula, rows, render)
                    if list(order) != sorted(rows, key=repr) or (
                        texts is not None
                        and list(texts) != [json.dumps(row) for row in wire.encode_rows(order)]
                    ):
                        wrong.append((formula, order, texts, rows))
                    reads.append(texts is not None)
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(error)

    def write():
        try:
            deadline = time.monotonic() + 5.0
            while len(reads) < 1500 and time.monotonic() < deadline:
                structure.insert("E", toggled)
                time.sleep(0.0002)
                structure.delete("E", toggled)
                time.sleep(0.0002)
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(error)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not wrong, wrong[:1]
    assert any(reads)
    assert engine.stats.answers_patched > 0
    for formula in formulas:
        rows = engine.answers(structure, formula)
        order, texts = engine.page_order(structure, formula, rows, render)
        assert list(order) == sorted(naive_answers(structure, formula), key=repr)
        assert texts == tuple(json.dumps(row) for row in wire.answers_to_wire(rows))


def test_orders_are_built_outside_the_structure_lock(monkeypatch):
    """The first page read's sort and render and a later read's
    bisection run without the structure's lock, so no write waits on
    them; the order and texts are then kept on the record."""
    structure = random_graph(10, 0.35, seed=4)
    engine = Engine()
    render = wire.element_texts(structure).render
    formula = parse(QUERIES["qf"][0])
    lock_free = []

    def probed(*args):
        # The lock is an RLock: another thread gets it only if this one
        # does not hold it.
        def take() -> None:
            if structure.lock.acquire(timeout=2):
                structure.lock.release()
                lock_free.append(True)
            else:
                lock_free.append(False)

        thread = threading.Thread(target=take)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        return answer_records.bring_forward(*args)

    monkeypatch.setattr(engine_module, "bring_forward", probed)
    rows = engine.answers(structure, formula)
    order, texts = engine.page_order(structure, formula, rows, render)
    assert engine.page_order(structure, formula, rows, render) == (order, texts)
    assert engine.page_order(structure, formula, rows, render)[1] is texts
    edges = structure.relations["E"]
    structure.insert("E", next((b, a) for a, b in sorted(edges) if (b, a) not in edges))
    rows = engine.answers(structure, formula)
    assert engine.stats.answers_patched == 1
    order, texts = engine.page_order(structure, formula, rows, render)
    assert list(order) == sorted(rows, key=repr)
    assert texts == tuple(render(order))
    assert lock_free == [True, True]


def test_encoding_memo_made_during_an_update_breaks_nothing():
    """A page read asks for the structure's element-text memo outside
    the structure's lock; an update copies the memo dict while holding it.
    Making the memo mid-copy raised ``dictionary changed size during
    iteration`` in the writer.  The memo dict is padded so each copy
    takes long enough to be interrupted."""
    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(400):
            structure = random_graph(6, 0.3, seed=5)
            structure._cache.update({("padding", k): k for k in range(200)})
            start = threading.Event()

            def first_page(structure=structure, start=start):
                start.wait()
                wire.element_texts(structure)

            reader = threading.Thread(target=first_page)
            reader.start()
            start.set()
            try:
                structure.insert("E", (0, 0))
            except RuntimeError as error:
                errors.append(error)
            reader.join(timeout=10)
            assert not reader.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:1]


@pytest.mark.parametrize(
    "structure",
    [random_graph(9, 0.3, seed=6), random_graph(4, 0.5, seed=7).disjoint_union(random_graph(5, 0.4, seed=8))],
    ids=["plain", "tagged"],
)
def test_page_bytes_equal_the_wire_encoding_of_the_answer_set(structure):
    """Pages, rendered through the structure's element texts, concatenate
    to :func:`wire.answers_to_wire` of the naive answers, for a universe
    of ints and one of tagged tuples, before and after a write."""
    service = QueryService()
    structure_id = service.add_structure(structure)
    _prepare(service, structure_id)
    a, b = structure.universe[0], structure.universe[-1]
    for delta in (None, ("insert", "E", (a, b)), ("delete", "E", (a, b))):
        if delta is not None:
            structure_id = service.apply_updates("t", structure_id, [delta])["structure_id"]
        for name in ("qf", "local", "hanf", "unmaintained"):
            encoded = []
            for page in range(64):
                payload = service.answers(
                    "t", structure_id, query=name, page=page, page_size=3
                ).to_wire()
                encoded += payload["rows"]
                if not payload["has_more"]:
                    break
            formula = parse(QUERIES[name][0])
            assert encoded == wire.answers_to_wire(naive_answers(structure, formula)), name


def test_pages_survive_invalidation():
    service = QueryService()
    structure = random_graph(10, 0.35, seed=2)
    structure_id = service.add_structure(structure)
    _prepare(service, structure_id)
    before = {
        name: [
            service.answers("t", structure_id, query=name, page=page, page_size=5).to_wire()
            for page in range(3)
        ]
        for name in QUERIES
    }
    assert service.engine.invalidate(structure) > 0
    after = {
        name: [
            service.answers("t", structure_id, query=name, page=page, page_size=5).to_wire()
            for page in range(3)
        ]
        for name in QUERIES
    }
    assert after == before


def test_records_no_page_reads_are_never_ordered():
    """The engine keeps no order for records only read directly."""
    engine = Engine()
    structure = random_graph(10, 0.35, seed=4)
    formulas = [parse(text) for text, _ in QUERIES.values()]
    for formula in formulas:
        engine.answers(structure, formula)
    structure.insert("E", next(
        (a, b) for a in structure.universe for b in structure.universe
        if (a, b) not in structure.relations["E"]
    ))
    for formula in formulas:
        engine.answers(structure, formula)
    records = [
        engine.answer_cache.peek((structure.uid, formula, analyze(formula).names))
        for formula in formulas
    ]
    assert all(
        record.order is None and record.ordered is None and record.texts is None
        for record in records
    )


@given(
    before=st.frozensets(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60),
    after=st.frozensets(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60),
)
def test_bring_forward_equals_a_fresh_sort(before, after):
    """Both ways forward, bisection and re-sort, give the canonical order,
    and the texts brought forward with it equal a fresh render."""
    render = wire.ElementTexts().render
    order = canonical_order(before)
    texts = tuple(render(order))
    near = frozenset(list(before)[: len(before) - 1]) | {(31, 31)}
    for rows in (after, near):
        fresh = canonical_order(rows)
        assert answer_records.bring_forward(order, before, rows) == (fresh, None)
        assert answer_records.bring_forward(order, before, rows, texts, render) == (
            fresh,
            tuple(render(fresh)),
        )

