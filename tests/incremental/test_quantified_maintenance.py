"""Quantified answer maintenance (ISSUE 10 tentpole).

Two maintained tiers sit behind :meth:`AnswerIndex.record`/``patch``
for quantified formulas:

* **local-existential** — φ(x) = ∃ȳ ψ with ψ quantifier-free and every
  quantified variable anchored to x through atoms: any witness lies
  within Gaifman distance k of x, so an update dirties only the
  radius-k ball around the touched elements and each dirty element is
  re-decided against its own ball.
* **Hanf census-gated** — any other quantified formula with at most one
  free variable: verdicts transfer between elements with equal pointed
  ball keys under an equal neighborhood census (the verdict-transfer
  rule proved in :mod:`repro.incremental.answers`), so a patch re-keys
  the dirty ball and re-decides only what the census says it must.

Every tier — these two and the quantifier-free one — commits at the
end, atomically: a budget expiry, injected fault, or work-limit overflow
mid-patch leaves the record exactly as it was — the next read either
patches again or recomputes, but never sees a half-updated answer set.
"""

from __future__ import annotations

import pytest

from repro.engine.engine import Engine
from repro.errors import BudgetExceededError, InjectedFaultError
from repro.eval.evaluator import answers as naive_answers
from repro.logic.analysis import free_variables
from repro.logic.parser import parse
from repro.resilience.budget import Budget, CancelToken
from repro.resilience.faults import (
    FaultInjector,
    arm_faults,
    reset_injector,
    set_injector,
)
from repro.structures.builders import directed_cycle, random_graph
from repro.structures.structure import Structure

QF = parse("E(x, y) & ~E(y, x)")
LOCAL = parse("exists y. (E(x, y) & E(y, x))")
HANF = parse("exists y. ~E(x, y)")
SENTENCE = parse("exists x. exists y. (E(x, y) & E(y, x))")


def _cold_copy(structure: Structure) -> Structure:
    return Structure(
        structure.signature,
        structure.universe,
        {name: set(rows) for name, rows in structure.relations.items()},
        dict(structure.constants),
    )


def _toggle(structure: Structure, step: int) -> None:
    n = structure.size
    row = (step % n, (step * 7 + 3) % n)
    if not structure.insert("E", row):
        structure.delete("E", row)


@pytest.fixture(autouse=True)
def _clean_injector():
    reset_injector()
    yield
    reset_injector()


# -- the two tiers track the naive evaluator ---------------------------------


def test_local_existential_tier_patches_and_tracks_naive():
    engine = Engine()
    live = directed_cycle(40)
    assert engine.answers(live, LOCAL) == naive_answers(live, LOCAL)
    for step in range(25):
        _toggle(live, step)
        assert engine.answers(live, LOCAL) == naive_answers(_cold_copy(live), LOCAL)
    index = engine._answer_index
    assert index.patched["local"] >= 20
    assert index.fallbacks == 0


def test_hanf_tier_promotes_then_patches():
    engine = Engine()
    live = random_graph(6, 0.4, seed=2)
    assert engine.answers(live, HANF) == naive_answers(live, HANF)
    for step in range(20):
        _toggle(live, step)
        assert engine.answers(live, HANF) == naive_answers(_cold_copy(live), HANF)
    index = engine._answer_index
    assert index.promoted >= 1
    assert index.patched["hanf"] >= 1


def test_cache_hits_on_a_promoted_hanf_record_do_not_reseed(monkeypatch):
    """A cache hit at the record's own epoch only refreshes LRU order: it
    must not re-seed the verdict cache over every element."""
    import repro.incremental.answers as answers_module

    engine = Engine()
    live = random_graph(6, 0.4, seed=2)
    engine.answers(live, HANF)
    _toggle(live, 0)
    engine.answers(live, HANF)  # the patch falls back; the recompute promotes
    assert _record(engine, live, HANF).census is not None
    seedings = []
    seed = answers_module._seed

    def counting_seed(census, scope, rows):
        seedings.append(len(census.keys))
        return seed(census, scope, rows)

    monkeypatch.setattr(answers_module, "_seed", counting_seed)
    for _ in range(3):
        assert engine.answers(live, HANF) == naive_answers(_cold_copy(live), HANF)
    assert seedings == []


def test_sentences_are_maintained_too():
    engine = Engine()
    live = directed_cycle(8)
    assert engine.answers(live, SENTENCE) == naive_answers(live, SENTENCE)
    for step in range(15):
        _toggle(live, step)
        assert engine.answers(live, SENTENCE) == naive_answers(
            _cold_copy(live), SENTENCE
        )
    assert engine._answer_index.patched["hanf"] >= 5


def test_maintained_changed_reports_real_changes_only():
    engine = Engine()
    live = directed_cycle(20)
    engine.answers(live, LOCAL)
    assert engine.maintained_changed(live, LOCAL) is False
    live.insert("E", (1, 0))  # closes a 2-cycle: 0 and 1 become answers
    assert engine.maintained_changed(live, LOCAL) is True
    live.insert("E", (10, 5))  # a chord, no new mutual edge
    assert engine.maintained_changed(live, LOCAL) is False
    assert engine.maintained_changed(live, parse("E(x, y) & E(y, z)")) is None


# -- atomicity: no partially-patched record survives (satellite 2) -----------


def _record(engine: Engine, structure: Structure, formula):
    names = tuple(sorted(var.name for var in free_variables(formula)))
    return engine.answer_cache.peek((structure.uid, formula, names))


@pytest.mark.parametrize("formula", [QF, LOCAL, HANF], ids=["qf", "local", "hanf"])
def test_injected_fault_mid_patch_leaves_record_untouched(formula):
    engine = Engine()
    live = random_graph(6, 0.4, seed=2) if formula is HANF else directed_cycle(12)
    engine.answers(live, formula)
    if formula is HANF:
        # Pay the promotion so the next patch runs the full Hanf path.
        _toggle(live, 0)
        engine.answers(live, formula)
    record = _record(engine, live, formula)
    rows_before, epoch_before = record.rows, record.epoch
    _toggle(live, 3)
    set_injector(FaultInjector(period=2))
    raised = 0
    with arm_faults():
        for _ in range(4):
            try:
                engine.answers(live, formula)
                break
            except InjectedFaultError:
                raised += 1
                # The aborted patch must not have moved the record.
                assert record.rows == rows_before
                assert record.epoch == epoch_before
    assert raised >= 1
    reset_injector()
    # Recovery: the very next read is correct, whether patched or recomputed.
    assert engine.answers(live, formula) == naive_answers(_cold_copy(live), formula)


@pytest.mark.parametrize("formula", [QF, LOCAL, HANF], ids=["qf", "local", "hanf"])
def test_budget_expiry_mid_patch_is_atomic(formula):
    engine = Engine()
    live = random_graph(6, 0.4, seed=2) if formula is HANF else directed_cycle(12)
    engine.answers(live, formula)
    if formula is HANF:
        _toggle(live, 0)
        engine.answers(live, formula)
    record = _record(engine, live, formula)
    rows_before, epoch_before = record.rows, record.epoch
    _toggle(live, 3)
    token = CancelToken(Budget())
    token.cancel("pulled mid-patch")
    with pytest.raises(BudgetExceededError):
        engine.answers(live, formula, budget=token)
    assert record.rows == rows_before
    assert record.epoch == epoch_before
    assert engine.answers(live, formula) == naive_answers(_cold_copy(live), formula)


class _CommitOnlyInjector(FaultInjector):
    """Fires only at the commit fault point: every verify succeeds and
    the patch dies with the fully-computed new answer set in hand — the
    worst possible moment for a non-atomic implementation."""

    def should_fire(self, site: str) -> bool:
        return super().should_fire(site) and site == "incremental.answers.commit"


def test_fault_at_commit_point_specifically_is_atomic():
    engine = Engine()
    live = directed_cycle(16)
    engine.answers(live, LOCAL)
    record = _record(engine, live, LOCAL)
    injector = _CommitOnlyInjector(period=2)
    set_injector(injector)
    commit_faults = 0
    with arm_faults():
        for step in range(6):
            _toggle(live, step)
            rows_before, epoch_before = record.rows, record.epoch
            try:
                engine.answers(live, LOCAL)
            except InjectedFaultError as error:
                assert error.site == "incremental.answers.commit"
                commit_faults += 1
                assert record.rows == rows_before
                assert record.epoch == epoch_before
    reset_injector()
    # period=2 over six patches: the commit point fired at least twice.
    assert commit_faults >= 2
    assert engine.answers(live, LOCAL) == naive_answers(_cold_copy(live), LOCAL)
