"""The incremental content digest behind structure ids.

``wire.structure_digest`` keeps an AdHash of the rows in the structure's
memo and moves it forward over the delta log, so a write costs one row
term instead of a pass over the whole structure.  These tests pin that
the maintained id always equals a from-scratch id, that per-write work
does not grow with the structure, and that the from-scratch pass is no
slower than the canonical-JSON hash it replaced.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StructureError
from repro.logic.signature import Signature
from repro.server import wire
from repro.structures.builders import directed_cycle, grid_graph
from repro.structures.structure import DELTA_LOG_LIMIT, DIGEST_MEMO, Structure

SIGNATURE = Signature({"E": 2, "P": 1})
UNIVERSE = [0, 1, 2, "a", "b", (0, "a"), (1, (2, "b"))]


def _from_scratch(structure: Structure) -> str:
    """The id of a memo-free copy of the same content."""
    return wire.structure_digest(copy.copy(structure))


def _canonical_json_digest(structure: Structure) -> str:
    """The previous id: SHA-256 of the whole canonical wire encoding."""
    canonical = json.dumps(wire.structure_to_dict(structure), sort_keys=True)
    return "s-" + hashlib.sha256(canonical.encode()).hexdigest()[:16]


rows = st.one_of(
    st.tuples(st.sampled_from(UNIVERSE), st.sampled_from(UNIVERSE)).map(
        lambda row: ("E", row)
    ),
    st.sampled_from(UNIVERSE).map(lambda element: ("P", (element,))),
)
updates = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), rows), max_size=30
)


@given(initial=st.lists(rows, max_size=12), sequence=updates)
def test_maintained_id_equals_from_scratch_id(initial, sequence):
    relations: dict[str, list] = {"E": [], "P": []}
    for relation, row in initial:
        relations[relation].append(row)
    structure = Structure(SIGNATURE, UNIVERSE, relations)
    assert wire.structure_digest(structure) == _from_scratch(structure)
    for op, (relation, row) in sequence:
        (structure.insert if op == "insert" else structure.delete)(relation, row)
        assert wire.structure_digest(structure) == _from_scratch(structure)


def test_insert_then_delete_returns_the_original_id():
    structure = directed_cycle(6)
    original = wire.structure_digest(structure)
    structure.insert("E", (0, 3))
    moved = wire.structure_digest(structure)
    structure.delete("E", (0, 3))
    assert moved != original
    assert wire.structure_digest(structure) == original
    assert structure.epoch == 2


@pytest.mark.parametrize("side", [16, 64])
def test_single_row_write_computes_one_row_term(side, monkeypatch):
    grid = grid_graph(side, side)
    wire.structure_digest(grid)
    calls = []
    row_term = wire._row_term

    def counted(relation, row):
        calls.append(row)
        return row_term(relation, row)

    monkeypatch.setattr(wire, "_row_term", counted)
    corner, far = grid.universe[0], grid.universe[-1]
    grid.insert("E", (corner, far))
    inserted = wire.structure_digest(grid)
    assert calls == [(corner, far)]
    grid.delete("E", (corner, far))
    wire.structure_digest(grid)
    assert calls == [(corner, far), (corner, far)]
    monkeypatch.undo()
    grid.insert("E", (corner, far))
    assert inserted == _from_scratch(grid)


def test_outrun_delta_log_rebuilds_from_scratch():
    structure = directed_cycle(40)
    wire.structure_digest(structure)
    pairs = [(a, b) for a in range(40) for b in range(40) if a != b]
    missing = [pair for pair in pairs if pair not in structure.relations["E"]]
    for row in missing[: DELTA_LOG_LIMIT + 1]:
        structure.insert("E", row)
    assert structure.deltas_since(structure._cache[DIGEST_MEMO][0]) is None
    assert wire.structure_digest(structure) == _from_scratch(structure)


def test_state_is_not_kept_when_a_write_lands_mid_digest(monkeypatch):
    structure = directed_cycle(6)
    row_sum = wire._row_sum

    def racing(target):
        total = row_sum(target)
        target.insert("E", (0, 3))
        return total

    monkeypatch.setattr(wire, "_row_sum", racing)
    wire.structure_digest(structure)
    monkeypatch.undo()
    assert DIGEST_MEMO not in structure._cache
    assert wire.structure_digest(structure) == _from_scratch(structure)


def test_row_encoding_rejects_what_the_wire_rejects():
    # True == 1, so the row passes the universe check, but it is not a
    # wire element; the digest must refuse it, as the JSON encoding did.
    structure = Structure(SIGNATURE, [0, 1, 2], {"E": [(True, 2)]})
    with pytest.raises(StructureError):
        wire.structure_digest(structure)
    structure = directed_cycle(4)
    wire.structure_digest(structure)
    structure.insert("E", (True, 3))
    with pytest.raises(StructureError):
        wire.structure_digest(structure)


def test_int_and_str_elements_stay_distinct():
    ints = Structure(SIGNATURE, [1, "1"], {"P": [(1,)]})
    strs = Structure(SIGNATURE, [1, "1"], {"P": [("1",)]})
    assert wire.structure_digest(ints) != wire.structure_digest(strs)


@pytest.mark.parametrize("side,repeats", [(32, 5), (64, 3)])
def test_from_scratch_pass_is_no_slower_than_canonical_json(side, repeats):
    grid = grid_graph(side, side)
    new_best = old_best = float("inf")
    for _ in range(repeats):
        grid._cache.pop(DIGEST_MEMO, None)
        start = time.perf_counter()
        wire.structure_digest(grid)
        new_best = min(new_best, time.perf_counter() - start)
        start = time.perf_counter()
        _canonical_json_digest(grid)
        old_best = min(old_best, time.perf_counter() - start)
    assert new_best <= old_best, (new_best, old_best)
