"""The backend registry: applicability predicates and differential power."""

from __future__ import annotations

import pytest

from repro.conformance.backends import (
    DEFAULT_BACKENDS,
    Backend,
    default_registry,
)
from repro.conformance.generate import Case, CaseGenerator
from repro.conformance.runner import Runner
from repro.errors import FMTError
from repro.eval.evaluator import answers as naive_answers
from repro.logic.analysis import free_variables
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.structures.builders import directed_chain, star_graph
from repro.structures.structure import Structure

POINTED = Signature({"E": 2}, frozenset({"c"}))


@pytest.fixture
def registry():
    return default_registry()


def test_default_registry_names(registry):
    assert registry.names() == DEFAULT_BACKENDS


def test_duplicate_registration_rejected(registry):
    with pytest.raises(FMTError, match="registered twice"):
        registry.register(Backend("naive", naive_answers))


def test_unknown_backend_rejected(registry):
    with pytest.raises(FMTError, match="unknown backend"):
        registry.get("sql")


def test_select_subset(registry):
    chosen = registry.select(["naive", "circuit"])
    assert [backend.name for backend in chosen] == ["naive", "circuit"]


def test_all_backends_agree_on_a_sentence(registry):
    structure = directed_chain(4)
    sentence = parse("exists x. (forall y. (~(E(y, x))))")  # a source exists
    case = Case("chain-source", structure, sentence)
    backends = registry.applicable(case)
    assert {backend.name for backend in backends} == set(DEFAULT_BACKENDS)
    results = {backend.name: backend.answers(structure, sentence) for backend in backends}
    assert set(results.values()) == {frozenset({()})}


def test_circuit_refuses_open_formulas_and_constants(registry):
    circuit = registry.get("circuit")
    structure = directed_chain(3)
    open_formula = parse("E(x, y)")
    ok, reason = circuit.applicable(structure, open_formula)
    assert not ok and "sentence" in reason
    pointed = Structure(POINTED, [0, 1], {"E": [(0, 1)]}, {"c": 0})
    sentence = parse("exists x. (E(x, x))")
    ok, reason = circuit.applicable(pointed, sentence)
    assert not ok and "constants" in reason


def test_bounded_degree_refuses_high_degree_and_rank(registry):
    backend = registry.get("bounded-degree")
    sentence = parse("exists x. (E(x, x))")
    ok, reason = backend.applicable(star_graph(6), sentence)
    assert not ok and "degree" in reason
    deep = parse(
        "exists x. (forall y. (exists z. (forall x. (exists y. (E(x, y))))))"
    )
    ok, reason = backend.applicable(directed_chain(3), deep)
    assert not ok and "rank" in reason


def test_engine_backend_sentences_via_evaluate(registry):
    """Sentences flow through Engine.evaluate, so the Theorem 3.11 fast
    path is part of the differential surface."""
    backend = registry.get("engine")
    structure = directed_chain(3)
    sentence = parse("exists x. (E(x, x))")
    assert backend.answers(structure, sentence) == frozenset()
    assert backend.engine.stats.fast_path_dispatches >= 1


def test_reset_clears_engine_caches(registry):
    backend = registry.get("engine")
    structure = directed_chain(3)
    formula = parse("E(x, y)")
    backend.answers(structure, formula)
    assert len(backend.engine.answer_cache) > 0
    registry.reset()
    assert len(backend.engine.answer_cache) == 0


def test_differential_runner_catches_an_injected_bug():
    """The whole point: a backend that drops one answer row is caught."""

    def buggy(structure, formula):
        rows = naive_answers(structure, formula)
        if structure.size >= 3 and rows and free_variables(formula):
            return frozenset(sorted(rows, key=repr)[1:])
        return rows

    registry = default_registry()
    registry.register(Backend("buggy", buggy))
    runner = Runner(registry=registry, backends=["naive", "buggy"], oracles=[])
    report = runner.run(60, seed=0)
    assert not report.ok
    assert any(failure.kind == "pairwise" for failure in report.failures)
    assert all(
        failure.backends == ("naive", "buggy")
        for failure in report.failures
        if failure.kind == "pairwise"
    )


def test_backend_error_recorded_not_raised():
    def exploding(structure, formula):
        raise FMTError("deliberately broken")

    registry = default_registry()
    registry.register(Backend("exploding", exploding))
    runner = Runner(registry=registry, backends=["naive", "exploding"], oracles=[])
    report = runner.run(3, seed=0)
    errors = [failure for failure in report.failures if failure.kind == "error"]
    assert errors and all(failure.backends == ("exploding",) for failure in errors)
    assert "deliberately broken" in errors[0].detail


def test_sentence_convention_matches_reference(registry):
    """{()} for true, ∅ for false — uniform across every backend."""
    structure = Structure(GRAPH, [0, 1], {"E": [(0, 1)]})
    true_sentence = parse("exists x. (exists y. (E(x, y)))")
    false_sentence = parse("exists x. (E(x, x))")
    case_true = Case("t", structure, true_sentence)
    for backend in registry.applicable(case_true):
        assert backend.answers(structure, true_sentence) == frozenset({()})
        assert backend.answers(structure, false_sentence) == frozenset()


def test_cross_structure_census_sharing(registry):
    """The bounded-degree backend shares one census table per formula
    across structures — Hanf memoization under differential test."""
    backend = registry.get("bounded-degree")
    sentence = parse("exists x. (exists y. (E(x, y)))")
    for n in (2, 3, 4, 5):
        assert backend.answers(directed_chain(n), sentence) == frozenset({()})


def test_applicable_uses_case(registry):
    cases = list(CaseGenerator(seed=0).stream(20))
    for case in cases:
        names = {backend.name for backend in registry.applicable(case)}
        assert {"naive", "algebra", "engine"} <= names
        if not case.is_sentence:
            assert "circuit" not in names
            assert "bounded-degree" not in names
