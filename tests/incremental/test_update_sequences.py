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

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.conformance.backends import default_registry
from repro.engine.engine import Engine
from repro.engine.executor import Executor
from repro.errors import BudgetExceededError
from repro.eval.evaluator import answers as naive_answers
from repro.locality.neighborhoods import (
    TypeRegistry,
    neighborhood_census,
    neighborhood_census_baseline,
)
from repro.logic.analysis import free_variables
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.resilience.budget import Budget, CancelToken
from repro.structures.builders import directed_cycle, grid_graph, random_graph
from repro.structures.gaifman import gaifman_adjacency
from repro.structures.structure import (
    DELTA_LOG_LIMIT,
    GAIFMAN_MEMO,
    INCIDENCE_MEMO,
    Structure,
)

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


def _cold_recompute(reference: str, structure: Structure, formula) -> frozenset:
    """The answers on a cold copy of ``structure``, from scratch: a fresh
    engine (``"columnar"``, the executor every engine read runs) or the
    tuple executor run on that engine's plan (``"tuple"``, the plan-level
    reference)."""
    cold = _cold_copy(structure)
    engine = Engine()
    if reference == "columnar":
        return engine.answers(cold, formula)
    plan, _ = engine._plan_for(cold, formula)
    relation = Executor(cold, cold.universe).run(plan)
    order = tuple(sorted(var.name for var in free_variables(formula)))
    if relation.attributes != order:
        relation = relation.project(order)
    return relation.rows


@pytest.mark.parametrize("reference", ["tuple", "columnar"])
@given(
    structure=strategies.graphs(min_size=2, max_size=6),
    steps=deltas(),
    text=st.sampled_from(QUANTIFIED),
)
def test_quantified_maintained_answers_track_cold_recompute(
    reference, structure, steps, text
):
    """After *every* insert/delete the maintained quantified answers
    equal a cold recompute by the ``reference`` executor and the naive
    evaluator.  One engine instance lives across the whole sequence so
    every path — record, promote, patch, overflow-fallback — gets
    exercised."""
    engine = Engine()
    formula = parse(text)
    live = _cold_copy(structure)
    assert engine.answers(live, formula) == naive_answers(live, formula)
    for insert, row in steps:
        row = tuple(value % structure.size for value in row)
        _apply(live, (insert, row))
        maintained = engine.answers(live, formula)
        assert maintained == _cold_recompute(reference, live, formula)
        assert maintained == naive_answers(_cold_copy(live), formula)


@given(
    structure=strategies.graphs(min_size=2, max_size=6),
    steps=deltas(),
    text=st.sampled_from(QUANTIFIED + ["E(x, y) & ~E(y, x)", "E(x, x) | E(y, z)"]),
)
def test_maintained_changed_is_a_sound_tri_state(structure, steps, text):
    """``maintained_changed`` after every step: ``False`` only when the
    answers really stayed put, ``True`` only when they really moved
    (``None`` promises nothing), and the read that follows is right."""
    engine = Engine()
    formula = parse(text)
    live = _cold_copy(structure)
    before = engine.answers(live, formula)
    for insert, row in steps:
        row = tuple(value % structure.size for value in row)
        _apply(live, (insert, row))
        changed = engine.maintained_changed(live, formula)
        cold = naive_answers(_cold_copy(live), formula)
        if changed is not None:
            assert changed == (cold != before), (changed, live.epoch)
        before = engine.answers(live, formula)
        assert before == cold


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


#: A ternary row joins three elements at once, so deleting one can leave
#: a pair it joined still joined by another row.
WITH_TERNARY = Signature({"E": 2, "T": 3})


def structures_with_deltas(signature: Signature, max_steps: int = 8):
    """A random structure over ``signature`` and insert/delete steps on
    any of its relations."""
    row = st.sampled_from(signature.relation_names()).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.tuples(*[st.integers(min_value=0, max_value=5)] * signature.arity(name)),
        )
    )
    return st.tuples(
        strategies.graphs(min_size=2, max_size=6, signature=signature),
        st.lists(st.tuples(st.booleans(), row), min_size=1, max_size=max_steps),
    )


@given(case=st.sampled_from([GRAPH, WITH_TERNARY]).flatmap(structures_with_deltas))
def test_patched_gaifman_adjacency_matches_cold(case):
    structure, steps = case
    live = _cold_copy(structure)
    gaifman_adjacency(live)  # materialize the memo so updates patch it
    for insert, (relation, row) in steps:
        row = tuple(value % structure.size for value in row)
        (live.insert if insert else live.delete)(relation, row)
        assert GAIFMAN_MEMO in live._cache  # patched, never dropped
        assert gaifman_adjacency(live) == gaifman_adjacency(_cold_copy(live))


def test_deletes_patch_the_gaifman_memo_without_a_rebuild(monkeypatch):
    """Alternating writes on a grid never rebuild the Gaifman graph: a
    delete recomputes its touched elements' neighbors from the row
    incidence, which the first delete builds once and later writes
    patch.  Set-up and inserts never build the incidence."""
    builds: Counter = Counter()
    cached = Structure.cached

    def counting(self, key, compute):
        def build():
            builds[self.uid, key] += 1
            return compute()

        return cached(self, key, build)

    monkeypatch.setattr(Structure, "cached", counting)
    live = grid_graph(8, 8)
    gaifman_adjacency(live)
    assert live.insert("E", ((0, 0), (1, 1)))
    assert builds == Counter({(live.uid, GAIFMAN_MEMO): 1})
    for a, b in [((0, 0), (0, 1)), ((3, 3), (3, 4)), ((7, 6), (7, 7))]:
        # The first delete leaves the pair joined by the reverse edge,
        # the second severs it; the inserts restore both.
        for write, row in [
            (live.delete, (a, b)),
            (live.delete, (b, a)),
            (live.insert, (a, b)),
            (live.insert, (b, a)),
        ]:
            assert write("E", row)
            assert GAIFMAN_MEMO in live._cache
            assert gaifman_adjacency(live) == gaifman_adjacency(_cold_copy(live))
    assert builds[live.uid, GAIFMAN_MEMO] == 1
    assert builds[live.uid, INCIDENCE_MEMO] == 1


def test_census_patch_honours_the_token():
    """The patched census ticks the request's token per dirty element, as
    the cold census ticks it per ball: a cancelled token refuses."""
    registry = TypeRegistry()
    live = directed_cycle(60)
    neighborhood_census(live, 1, registry)
    live.insert("E", (0, 30))
    token = CancelToken(Budget())
    token.cancel("pulled before the patch")
    with pytest.raises(BudgetExceededError):
        neighborhood_census(live, 1, registry, cancel_token=token)
    assert registry.incremental.patched == 0
    assert neighborhood_census(live, 1, registry) == neighborhood_census_baseline(
        _cold_copy(live), 1, registry
    )
    assert registry.incremental.patched == 1


def test_a_registry_keeps_no_censused_structure_alive():
    registry = TypeRegistry()
    graph = directed_cycle(12)
    neighborhood_census(graph, 1, registry)
    dropped = weakref.ref(graph)
    del graph
    gc.collect()
    assert dropped() is None
    assert len(registry.censuses) == 1


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
