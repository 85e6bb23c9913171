"""DomainCodec epoch maintenance: stale columns are never served.

The codec caches columnar materializations (int columns, packed key
sets) of every base relation on the structure itself.  Before updates
existed the cache could never go stale; with ``insert``/``delete`` a
codec built at epoch k holds wrong columns at epoch k+1.  Since ISSUE
10 the memo *survives* updates and ``codec_for`` patches the codec
forward from the structure's delta log (O(delta) instead of a full
re-encode); a rebuild happens only when the log no longer covers the
gap or the codec belongs to another structure.
This file is the regression suite for both paths, plus the scan memo
the patch drops, which is the only state compiled pipelines read
beyond the columns.
"""

from __future__ import annotations

import gc
import tracemalloc

import repro.engine.columnar.executor as executor_module
from repro.engine.columnar.codec import codec_for, codec_stats
from repro.engine.columnar.executor import ColumnarExecutor
from repro.engine.engine import Engine
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.structures.builders import directed_cycle, grid_graph, random_graph
from repro.structures.structure import CODEC_MEMO, DELTA_LOG_LIMIT


def test_codec_is_patched_in_place_after_an_update():
    structure = directed_cycle(5)
    before = codec_for(structure)
    assert codec_for(structure) is before  # cached while current
    stale_rows = before.packed_relation("E")  # materialize the epoch-0 columns
    patched_before = codec_stats["patched"]
    structure.insert("E", (0, 2))
    after = codec_for(structure)
    assert after is before  # same codec object, patched forward
    assert after.epoch == structure.epoch
    assert after.packed_relation("E") != stale_rows
    assert after.packed_relation("E") == stale_rows | {before.encode_row((0, 2))}
    assert codec_stats["patched"] == patched_before + 1


def test_codec_columns_are_patched_in_place():
    structure = directed_cycle(6)
    codec = codec_for(structure)
    columns = codec.columns("E")  # the tuple closures capture
    assert len(columns[0]) == 6
    structure.insert("E", (0, 3))
    assert codec_for(structure) is codec
    # The *same* array objects grew — captured references stay valid.
    assert codec.columns("E") is columns
    assert len(columns[0]) == 7
    structure.delete("E", (0, 3))
    structure.delete("E", (0, 1))
    codec_for(structure)
    assert len(columns[0]) == 5
    assert sorted(zip(columns[0], columns[1])) == sorted(
        (codec.encode(a), codec.encode(b)) for a, b in structure.tuples("E")
    )


def test_codec_outrun_by_the_delta_log_is_rebuilt():
    structure = directed_cycle(5)
    stale = codec_for(structure)
    rebuilt_before = codec_stats["rebuilt"]
    for step in range(DELTA_LOG_LIMIT + 1):
        a, b = step % 5, (step * 3 + 1) % 5
        if not structure.insert("E", (a, b)):
            structure.delete("E", (a, b))
    assert structure.deltas_since(stale.epoch) is None
    served = codec_for(structure)
    assert served is not stale
    assert served.epoch == structure.epoch
    assert codec_stats["rebuilt"] == rebuilt_before + 1


def test_resurrected_stale_codec_is_patched_not_served_stale():
    """A stale codec reappearing in the memo is never served as-is:
    ``codec_for`` patches it forward to the current epoch first."""
    structure = directed_cycle(5)
    stale = codec_for(structure)
    stale.packed_relation("E")
    structure.insert("E", (0, 2))
    # Adversarially re-install the stale codec where the memo keeps it.
    structure._cache[CODEC_MEMO] = stale
    served = codec_for(structure)
    assert served.epoch == structure.epoch
    assert served.packed_relation("E") == frozenset(
        served.encode_row(row) for row in structure.tuples("E")
    )


def test_foreign_structures_codec_is_rebuilt_not_patched():
    """A codec adopted from a different structure object (same universe,
    same epoch counter) must not be patched with the adoptive
    structure's deltas — its columns describe the donor's relations."""
    donor = directed_cycle(5)
    adoptive = random_graph(5, 0.5, seed=9)
    foreign = codec_for(donor)
    adoptive.insert("E", (0, 0))
    adoptive._cache[CODEC_MEMO] = foreign
    served = codec_for(adoptive)
    assert served is not foreign
    assert served.packed_relation("E") == frozenset(
        served.encode_row(row) for row in adoptive.tuples("E")
    )


def test_columnar_answers_correct_across_updates():
    engine = Engine()
    formula = parse("E(x, y) & E(y, z)")
    structure = random_graph(10, 0.3, seed=5)
    assert engine.answers(structure, formula) == naive_answers(structure, formula)
    rebuilt_before = codec_stats["rebuilt"]
    for step in range(12):
        a, b = step % 10, (step * 3 + 1) % 10
        if not structure.insert("E", (a, b)):
            structure.delete("E", (a, b))
        assert engine.answers(structure, formula) == naive_answers(structure, formula)
    # The whole update run re-used one codec: patches only, no rebuild.
    assert codec_stats["rebuilt"] == rebuilt_before


def test_quantified_columnar_answers_correct_across_updates():
    engine = Engine()
    formula = parse("exists z. (E(x, z) & ~E(z, y))")
    structure = random_graph(8, 0.4, seed=13)
    for step in range(10):
        a, b = (step * 5 + 2) % 8, step % 8
        if not structure.insert("E", (a, b)):
            structure.delete("E", (a, b))
        assert engine.answers(structure, formula) == naive_answers(structure, formula)


def test_warm_reads_skip_codec_for_and_writes_drop_the_touched_scans(
    monkeypatch, scan_builds
):
    """A warm execution asks ``codec_for`` nothing; the first one after a
    write brings the codec forward once, which drops the written
    relation's scans, and the same pipeline then rebuilds them."""
    fetches, compiles = [], []
    monkeypatch.setattr(
        executor_module,
        "codec_for",
        lambda structure: fetches.append(structure) or codec_for(structure),
    )
    compile_plan = executor_module.compile_plan
    monkeypatch.setattr(
        executor_module,
        "compile_plan",
        lambda plan, structure: compiles.append(plan) or compile_plan(plan, structure),
    )
    formula = parse("exists y E(x, y)")
    structure = random_graph(9, 0.3, seed=2)
    plan, _ = Engine()._plan_for(structure, formula)
    executor = ColumnarExecutor(structure)
    executor.run(plan)
    assert (len(compiles), len(scan_builds)) == (1, 1)
    for _ in range(5):
        executor.run(plan)
    assert (fetches, len(compiles), len(scan_builds)) == ([], 1, 1)
    assert structure.insert("E", (8, 8))
    assert executor.run(plan).rows == naive_answers(structure, formula)
    assert (len(fetches), len(compiles)) == (1, 1)
    assert scan_builds == [scan_builds[0]] * 2  # E's scan, built again


#: Bytes a write may leave behind when every write is followed by a read
#: no maintenance tier covers.  Each write changes |E|, so the read plans
#: and compiles anew; what stays is the dead plan and pipeline until the
#: 256-entry LRUs evict them, about 25 KB a write on a 24x24 grid.  The
#: bound sits well below the ~150 KB a write costs when every pipeline
#: keeps its own copy of E's scans.
RETAINED_PER_WRITE = 64 * 1024


def test_dead_pipelines_pin_no_stale_scans():
    """Scans live in the codec, which the write patches, so the pipelines
    that writes leave behind keep no copy of the relation."""
    engine = Engine()
    formula = parse("exists z (E(x, z) & E(z, y)) & ~E(y, x)")
    grid = grid_graph(24, 24)
    engine.answers(grid, formula)
    elements = list(grid.universe)
    size = len(elements)
    writes = step = 0
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        while writes < 60:
            row = (elements[step % size], elements[(step * 7 + 3) % size])
            step += 1
            if grid.insert("E", row):
                writes += 1
                engine.answers(grid, formula)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / writes < RETAINED_PER_WRITE, retained / writes
