"""The update-sequence differential suite.

The incremental machinery (delta logs, Gaifman/incidence memo patching,
census maintenance, answer maintenance) is an optimization with one
contract: a structure mutated through :meth:`Structure.insert` /
:meth:`Structure.delete` must be observationally identical to a cold
structure built from the final content in one shot.  Hypothesis drives
random update sequences and checks that contract after *every* step —
against every conformance backend for answers, and against the
from-scratch census baseline for the locality indexes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.backends import default_registry
from repro.engine.engine import Engine
from repro.eval.evaluator import answers as naive_answers
from repro.locality.neighborhoods import (
    TypeRegistry,
    neighborhood_census,
    neighborhood_census_baseline,
)
from repro.logic.parser import parse
from repro.logic.signature import GRAPH
from repro.structures.builders import directed_cycle, random_graph
from repro.structures.gaifman import gaifman_adjacency
from repro.structures.structure import DELTA_LOG_LIMIT, Structure

import strategies


def _cold_copy(structure: Structure) -> Structure:
    """The same mathematical content, built in one shot (no delta history)."""
    return Structure(
        structure.signature,
        structure.universe,
        {name: set(rows) for name, rows in structure.relations.items()},
        dict(structure.constants),
    )


def _apply(structure: Structure, delta) -> None:
    insert, row = delta
    if insert:
        structure.insert("E", row)
    else:
        structure.delete("E", row)


def deltas(max_element: int = 5, max_steps: int = 8):
    """Random insert/delete sequences over the graph signature."""
    edge = st.tuples(
        st.integers(min_value=0, max_value=max_element),
        st.integers(min_value=0, max_value=max_element),
    )
    return st.lists(st.tuples(st.booleans(), edge), min_size=1, max_size=max_steps)


# -- answers: every backend, every step --------------------------------------


@given(
    structure=strategies.graphs(min_size=2, max_size=6),
    steps=deltas(),
    formula=strategies.formulas(max_leaves=4),
)
@settings(max_examples=25, deadline=None)
def test_update_sequence_answers_match_cold_rebuild(structure, steps, formula):
    registry = default_registry()
    live = _cold_copy(structure)
    for insert, row in steps:
        row = tuple(value % structure.size for value in row)
        _apply(live, (insert, row))
        cold = _cold_copy(live)
        assert live == cold
        for backend in registry.backends.values():
            if not (
                backend.applicable(live, formula)[0]
                and backend.applicable(cold, formula)[0]
            ):
                continue
            assert backend.answers(live, formula) == backend.answers(cold, formula), (
                f"{backend.name} diverges at epoch {live.epoch}"
            )


@given(structure=strategies.graphs(min_size=2, max_size=6), steps=deltas())
@settings(max_examples=25, deadline=None)
def test_maintained_engine_answers_track_naive(structure, steps):
    """One engine instance across the whole sequence: cache hits, patched
    answer sets, and recomputes must all agree with the naive evaluator."""
    engine = Engine()
    formula = parse("E(x, y) & ~E(y, x)")
    live = _cold_copy(structure)
    assert engine.answers(live, formula) == naive_answers(live, formula)
    for insert, row in steps:
        row = tuple(value % structure.size for value in row)
        _apply(live, (insert, row))
        assert engine.answers(live, formula) == naive_answers(live, formula)


#: Quantified formulas spanning both maintained tiers (ISSUE 10):
#: witness-anchored existentials (local tier), a negated-atom body that
#: forces the Hanf census-gated tier, and a sentence.
QUANTIFIED = [
    "exists y. (E(x, y) & E(y, x))",
    "exists y. exists z. (E(x, y) & E(y, z))",
    "exists y. (E(x, y) | E(y, x))",
    "exists y. ~E(x, y)",
    "exists y. forall z. (E(x, y) & (E(z, x) -> E(x, z)))",
    "exists x. exists y. (E(x, y) & E(y, x))",
]


@pytest.mark.parametrize("executor", ["tuple", "columnar"])
@given(
    structure=strategies.graphs(min_size=2, max_size=6),
    steps=deltas(),
    text=st.sampled_from(QUANTIFIED),
)
@settings(max_examples=25, deadline=None)
def test_quantified_maintained_answers_track_cold_recompute(
    executor, structure, steps, text
):
    """Satellite 4: after *every* insert/delete the maintained quantified
    answers equal a cold recompute, under both executor tiers.  One
    engine instance lives across the whole sequence so every path —
    remember, promote, patch, overflow-fallback — gets exercised."""
    engine = Engine(executor=executor, columnar_min_rows=0, tiny_plan_rows=0)
    formula = parse(text)
    live = _cold_copy(structure)
    assert engine.answers(live, formula) == naive_answers(live, formula)
    for insert, row in steps:
        row = tuple(value % structure.size for value in row)
        _apply(live, (insert, row))
        assert engine.answers(live, formula) == naive_answers(_cold_copy(live), formula)


def test_quantifier_free_sequences_patch_not_recompute():
    """On a long update run the maintained path does the work: the engine
    patches answer sets instead of re-running the planner every step."""
    engine = Engine()
    formula = parse("E(x, y) & ~E(y, x)")
    live = directed_cycle(12)
    engine.answers(live, formula)
    for step in range(20):
        a, b = step % 12, (step * 5 + 1) % 12
        if not live.insert("E", (a, b)):
            live.delete("E", (a, b))
        assert engine.answers(live, formula) == naive_answers(live, formula)
    assert engine.stats.answers_patched >= 10


# -- locality indexes: census and Gaifman memos ------------------------------


@given(
    structure=strategies.graphs(min_size=2, max_size=6),
    steps=deltas(),
    radius=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=25, deadline=None)
def test_census_identical_to_from_scratch_after_every_step(structure, steps, radius):
    registry = TypeRegistry()
    live = _cold_copy(structure)
    neighborhood_census(live, radius, registry)  # seed the incremental record
    for insert, row in steps:
        row = tuple(value % structure.size for value in row)
        _apply(live, (insert, row))
        patched = neighborhood_census(live, radius, registry)
        # The baseline recomputes every ball in the same registry (same
        # canonical type ids) and never consults the census memo.
        assert patched == neighborhood_census_baseline(_cold_copy(live), radius, registry)


@given(structure=strategies.graphs(min_size=2, max_size=6), steps=deltas())
@settings(max_examples=25, deadline=None)
def test_patched_gaifman_adjacency_matches_cold(structure, steps):
    live = _cold_copy(structure)
    gaifman_adjacency(live)  # materialize the memo so updates patch it
    for insert, row in steps:
        row = tuple(value % structure.size for value in row)
        _apply(live, (insert, row))
        assert gaifman_adjacency(live) == gaifman_adjacency(_cold_copy(live))


def test_census_patch_touches_only_dirty_balls():
    registry = TypeRegistry()
    live = directed_cycle(60)
    neighborhood_census(live, 1, registry)
    live.insert("E", (0, 30))
    neighborhood_census(live, 1, registry)
    index = registry.incremental
    assert index.patched == 1
    # One new edge dirties the radius-1 balls around {0, 30} only.
    assert 0 < index.dirty_elements < 60


# -- round trips and the delta log -------------------------------------------


@given(structure=strategies.graphs(min_size=2, max_size=6))
@settings(max_examples=25, deadline=None)
def test_insert_then_delete_is_identity(structure):
    live = _cold_copy(structure)
    pristine = _cold_copy(structure)
    fresh = next(
        (
            (a, b)
            for a in live.universe
            for b in live.universe
            if (a, b) not in live.relations["E"]
        ),
        None,
    )
    if fresh is not None:
        assert live.insert("E", fresh)
        assert live != pristine
        assert live.delete("E", fresh)
    else:  # complete graph: round-trip the other way
        fresh = next(iter(live.relations["E"]))
        assert live.delete("E", fresh)
        assert live != pristine
        assert live.insert("E", fresh)
    assert live == pristine
    assert hash(live) == hash(pristine)
    assert live.epoch == 2
    assert live.relations == pristine.relations


def test_noop_updates_do_not_advance_the_epoch():
    live = directed_cycle(4)
    assert not live.insert("E", (0, 1))  # already present
    assert not live.delete("E", (0, 2))  # already absent
    assert live.epoch == 0
    assert live.deltas_since(0) == []


def test_deltas_since_windows_and_outruns():
    live = random_graph(5, 0.0, seed=1)
    live.insert("E", (0, 1))
    live.insert("E", (1, 2))
    live.delete("E", (0, 1))
    assert live.deltas_since(3) == []
    assert live.deltas_since(2) == [("delete", "E", (0, 1))]
    assert [op for op, _, _ in live.deltas_since(0)] == ["insert", "insert", "delete"]
    assert live.deltas_since(4) is None  # a future epoch is unanswerable
    for step in range(DELTA_LOG_LIMIT + 1):
        a = step % 5
        if not live.insert("E", (a, (a + step) % 5)):
            live.delete("E", (a, (a + step) % 5))
    assert live.deltas_since(3) is None  # outran the bounded log
    assert len(live.deltas_since(live.epoch - DELTA_LOG_LIMIT)) == DELTA_LOG_LIMIT


def test_update_validation_rejects_bad_deltas_untouched():
    from repro.errors import SignatureError, StructureError

    live = directed_cycle(3)
    before = dict(live.relations)
    with pytest.raises(SignatureError):
        live.insert("Q", (0, 1))
    with pytest.raises(StructureError):
        live.insert("E", (0, 1, 2))  # arity mismatch
    with pytest.raises(StructureError):
        live.insert("E", (0, 99))  # 99 is outside the universe
    assert live.relations == before
    assert live.epoch == 0


def test_pickled_copies_get_fresh_identity():
    """A pickled copy must not alias the original's incremental records."""
    import pickle

    live = directed_cycle(4)
    clone = pickle.loads(pickle.dumps(live))
    assert clone == live
    assert clone.uid != live.uid
    assert clone.epoch == 0
