"""The answer cache keys a structure by identity and stamps its epoch.

One entry per (structure uid, formula, column order) holds the rows with
the epoch they answer; a read is a hit only at that epoch, and the next
read after a write brings the entry forward or overwrites it instead of
leaving the old content's answers behind.  A write that lands while a
read is computing must not get the read's (older) rows cached as its
answers.
"""

from __future__ import annotations

import copy
import sys
import threading

from repro.engine import Engine
from repro.errors import ServerError
from repro.structures.builders import random_graph
from repro.eval.evaluator import answers as naive_answers
from repro.incremental import answers as maintenance
from repro.logic.parser import parse
from repro.server import wire
from repro.server.service import QueryService
from repro.structures.builders import directed_cycle

ONE_WAY = parse("E(x, y) & ~E(y, x)")
DISTANCE_TWO = parse("exists z (E(x, z) & E(z, y)) & ~E(x, y)")

#: Rounds of the two race tests: enough that a race without the
#: structure's lock fails them reliably, not once in a while.
ROUNDS = 10


def _entries_for(engine: Engine, structure) -> int:
    return sum(1 for key in engine.answer_cache._data if key[0] == structure.uid)


def test_a_write_overwrites_the_one_entry():
    engine = Engine()
    cycle = directed_cycle(6)
    engine.answers(cycle, ONE_WAY)
    for target in range(2, 6):
        cycle.insert("E", (0, target))
        assert engine.answers(cycle, ONE_WAY) == naive_answers(cycle, ONE_WAY)
    assert len(engine.answer_cache) == 1
    key = (cycle.uid, ONE_WAY, ("x", "y"))
    assert engine.answer_cache.get(key).epoch == cycle.epoch


def test_a_stale_entry_is_a_miss():
    engine = Engine()
    cycle = directed_cycle(5)
    engine.answers(cycle, ONE_WAY)
    hits, misses = engine.answer_cache.hits, engine.answer_cache.misses
    cycle.insert("E", (0, 2))
    engine.answers(cycle, ONE_WAY)
    assert (engine.answer_cache.hits, engine.answer_cache.misses) == (hits, misses + 1)
    engine.answers(cycle, ONE_WAY)
    assert engine.answer_cache.hits == hits + 1


def test_content_equal_structures_keep_separate_entries():
    engine = Engine()
    left, right = directed_cycle(5), directed_cycle(5)
    assert engine.answers(left, ONE_WAY) == engine.answers(right, ONE_WAY)
    assert len(engine.answer_cache) == 2
    assert engine.invalidate(left) == 1
    assert _entries_for(engine, right) == 1


def test_write_during_compute_is_not_cached_as_its_answers(monkeypatch):
    engine = Engine()
    cycle = directed_cycle(5)
    compute = Engine._compute_answers

    def racing(self, structure, *args, **kwargs):
        rows = compute(self, structure, *args, **kwargs)
        if structure.epoch == 0:
            structure.insert("E", (0, 2))
        return rows

    monkeypatch.setattr(Engine, "_compute_answers", racing)
    first = engine.answers(cycle, ONE_WAY)
    assert len(first) == 5  # computed before the write landed
    monkeypatch.undo()
    assert engine.answers(cycle, ONE_WAY) == naive_answers(cycle, ONE_WAY)
    assert len(naive_answers(cycle, ONE_WAY)) == 6


def test_write_during_patch_is_not_committed(monkeypatch):
    engine = Engine()
    cycle = directed_cycle(6)
    engine.answers(cycle, ONE_WAY)
    cycle.insert("E", (0, 2))
    patch_qf = maintenance._TIERS["qf"]

    def racing(structure, *args):
        result = patch_qf(structure, *args)
        structure.insert("E", (1, 3))
        return result

    monkeypatch.setitem(maintenance._TIERS, "qf", racing)
    engine.answers(cycle, ONE_WAY)
    monkeypatch.undo()
    assert engine.answers(cycle, ONE_WAY) == naive_answers(cycle, ONE_WAY)
    assert engine.maintained_changed(cycle, ONE_WAY) is False


def test_remember_records_nothing_for_a_past_epoch(monkeypatch):
    """Rows whose epoch a write moved past while they were computed make
    no answer record, so no later read patches from them; rows at the
    current epoch make one, which patches to exactly those rows."""
    engine = Engine()
    cycle = directed_cycle(5)
    key = (cycle.uid, ONE_WAY, ("x", "y"))
    compute = Engine._compute_answers

    def racing(self, structure, *args, **kwargs):
        rows = compute(self, structure, *args, **kwargs)
        structure.insert("E", (0, 2))
        return rows

    monkeypatch.setattr(Engine, "_compute_answers", racing)
    engine.answers(cycle, ONE_WAY)
    monkeypatch.undo()
    assert engine.answer_cache.peek(key) is None
    assert engine.maintained_changed(cycle, ONE_WAY) is None
    assert engine.answers(cycle, ONE_WAY) == naive_answers(cycle, ONE_WAY)
    record = engine.answer_cache.peek(key)
    assert record.epoch == cycle.epoch
    index = engine._answer_index
    assert index.patch(cycle, ONE_WAY, record) == naive_answers(cycle, ONE_WAY)


def test_cache_hits_classify_nothing(monkeypatch):
    """A query outside every maintained fragment is classified once, when
    its record is made, not again on each hit."""
    engine = Engine()
    graph = random_graph(12, 0.3, seed=1)
    expected = engine.answers(graph, DISTANCE_TWO)
    calls = []
    classify = maintenance._classify
    monkeypatch.setattr(
        maintenance, "_classify", lambda formula: calls.append(formula) or classify(formula)
    )
    for _ in range(5):
        assert engine.answers(graph, DISTANCE_TWO) == expected
    assert calls == []
    assert engine.answer_cache.hits == 5


def test_maintained_changed_leaves_a_hit_for_the_next_read():
    """The patch that decides ``maintained_changed`` brings the answer
    record forward, so the read after it is a hit, and that patch counts
    in ``answers_patched``."""
    engine = Engine()
    cycle = directed_cycle(6)
    engine.answers(cycle, ONE_WAY)
    cycle.insert("E", (0, 2))
    assert engine.maintained_changed(cycle, ONE_WAY) is True
    hits, misses = engine.answer_cache.hits, engine.answer_cache.misses
    executions = engine.stats.executions
    assert engine.answers(cycle, ONE_WAY) == naive_answers(cycle, ONE_WAY)
    assert (engine.answer_cache.hits, engine.answer_cache.misses) == (hits + 1, misses)
    assert engine.stats.executions == executions
    assert engine.stats.answers_patched == 1


def test_an_update_to_an_id_retired_while_it_waited_is_a_409(monkeypatch):
    """Two updates name one id at once.  The second resolves the id, then
    waits until the first has applied and retired it.  It must get the
    409 a read gets, naming the current id, and leave the store with one
    id, the digest of the structure's content."""
    service = QueryService()
    cycle = directed_cycle(8)
    first_id = service.add_structure(cycle, tenant="t")
    resolve = service.structure
    resolved, first_done, outcome = threading.Event(), threading.Event(), {}

    def slow_resolve(structure_id):
        structure = resolve(structure_id)
        if threading.current_thread() is second and not resolved.is_set():
            resolved.set()
            first_done.wait(timeout=30)
        return structure

    def second_update():
        try:
            outcome["reply"] = service.apply_updates("t", first_id, [("insert", "E", (0, 2))])
        except ServerError as error:
            outcome["error"] = error

    monkeypatch.setattr(service, "structure", slow_resolve)
    second = threading.Thread(target=second_update)
    second.start()
    assert resolved.wait(timeout=30)
    try:
        reply = service.apply_updates("t", first_id, [("insert", "E", (0, 3))])
    finally:
        first_done.set()
        second.join(timeout=30)
    assert not second.is_alive()
    assert "reply" not in outcome
    assert outcome["error"].status == 409
    assert reply["structure_id"] in str(outcome["error"])
    assert (0, 2) not in cycle.relations["E"]
    assert list(service.structures) == [reply["structure_id"]]
    for structure_id, structure in service.structures.items():
        assert structure_id == wire.structure_digest(structure)


def test_served_writes_leave_one_entry_per_prepared_query():
    service = QueryService()
    cycle = directed_cycle(24)
    structure_id = service.add_structure(cycle, tenant="t")
    texts = ["E(x, y) & ~E(y, x)", "exists y. (E(x, y) & E(y, x))", "exists y E(x, y)"]
    names = [
        service.prepare("t", text, structure_id=structure_id).name for text in texts
    ]
    missing = iter(
        (a, b)
        for a in range(24)
        for b in range(24)
        if a != b and (a, b) not in cycle.relations["E"]
    )
    for _ in range(500):
        for name in names:
            service.answers("t", structure_id, query=name)
        structure_id = service.apply_updates(
            "t", structure_id, [("insert", "E", next(missing))]
        )["structure_id"]
    for name in names:
        service.answers("t", structure_id, query=name)
    engine = service.engine
    assert _entries_for(engine, cycle) <= 3
    assert len(engine.answer_cache) <= 3


def test_reads_racing_writes_stay_consistent():
    """Three readers (answers and the content digest) against one writer,
    with a short switch interval so threads interleave mid-call.  No
    thread may fail, and once the writer stops, every cached answer set,
    maintenance record and digest state must describe the final content."""
    queries = [
        ONE_WAY,
        parse("exists y. (E(x, y) & E(y, x))"),
        parse("exists y E(x, y)"),
    ]
    rows = [(a, (a + k) % 12) for k in (2, 3, 5) for a in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(ROUNDS):
            engine, cycle = Engine(), directed_cycle(12)
            for formula in queries:
                engine.answers(cycle, formula)
            wire.structure_digest(cycle)
            done, errors = threading.Event(), []

            def read():
                try:
                    while not done.is_set():
                        for formula in queries:
                            engine.answers(cycle, formula)
                        wire.structure_digest(cycle)
                except Exception as error:  # noqa: BLE001 — reported below
                    errors.append(error)

            def write():
                try:
                    for _ in range(3):
                        for row in rows:
                            cycle.insert("E", row)
                        for row in rows:
                            cycle.delete("E", row)
                        for row in rows[::2]:
                            cycle.insert("E", row)
                except Exception as error:  # noqa: BLE001 — reported below
                    errors.append(error)
                finally:
                    done.set()

            threads = [threading.Thread(target=read) for _ in range(3)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            for formula in queries:
                assert engine.answers(cycle, formula) == naive_answers(cycle, formula)
            assert wire.structure_digest(cycle) == wire.structure_digest(copy.copy(cycle))
    finally:
        sys.setswitchinterval(interval)


def test_served_reads_racing_writes_keep_the_store_consistent():
    """One client sends single-delta updates to a 12-cycle while two
    others read it, ad hoc and prepared.  No read and no write may fail
    (a read that names an id an update just retired gets its typed 409),
    and the store must file the structure under the digest of its final
    content, with answers to match."""
    texts = ["E(x, y) & ~E(y, x)", "exists y. (E(x, y) & E(y, x))", "exists y E(x, y)"]
    rows = [(a, (a + k) % 12) for k in (2, 3, 5) for a in range(12)]
    deltas = [("insert", row) for row in rows] + [("delete", row) for row in rows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(ROUNDS):
            service, cycle = QueryService(), directed_cycle(12)
            current = [service.add_structure(cycle, tenant="t")]
            names = [
                service.prepare("t", text, structure_id=current[0]).name
                for text in texts
            ]
            done, errors = threading.Event(), []

            def read(prepared: bool):
                try:
                    while not done.is_set():
                        for name, text in zip(names, texts):
                            try:
                                if prepared:
                                    service.answers("t", current[0], query=name)
                                else:
                                    service.answers("t", current[0], formula=text)
                            except ServerError as error:
                                if error.status != 409:
                                    raise
                except Exception as error:  # noqa: BLE001 — reported below
                    errors.append(error)

            def write():
                try:
                    for _ in range(2):
                        for op, row in deltas:
                            reply = service.apply_updates(
                                "t", current[0], [(op, "E", row)]
                            )
                            current[0] = reply["structure_id"]
                except Exception as error:  # noqa: BLE001 — reported below
                    errors.append(error)
                finally:
                    done.set()

            threads = [threading.Thread(target=read, args=(flag,)) for flag in (True, False)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            final_id = wire.structure_digest(cycle)
            assert final_id == current[0] == wire.structure_digest(copy.copy(cycle))
            assert service.structure(final_id) is cycle
            for text in texts:
                page = service.answers("t", final_id, formula=text)
                assert frozenset(page.rows) == naive_answers(cycle, parse(text))
    finally:
        sys.setswitchinterval(interval)
