"""Error paths assert the *specific* ``repro.errors`` exception types.

The conformance fuzzer only exercises well-formed inputs; these tests
pin down the rejection behaviour of every layer the backends wrap, so a
refactor that swaps a precise exception for a bare ``Exception`` (or
silently accepts garbage) fails tier-1.
"""

from __future__ import annotations

import pytest

from repro.conformance.backends import Backend, default_registry
from repro.conformance.corpus import load_corpus
from repro.engine.engine import Engine
from repro.errors import (
    EvaluationError,
    FMTError,
    FormulaError,
    LocalityError,
    ParseError,
    SignatureError,
    StructureError,
)
from repro.eval.circuits import compile_query
from repro.eval.evaluator import answers as naive_answers
from repro.locality.bounded_degree import BoundedDegreeEvaluator
from repro.logic.builder import V
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.structures.builders import directed_chain, star_graph
from repro.structures.structure import Structure


# -- parser rejections -------------------------------------------------------


def test_parser_rejects_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse("E(x, y) $ E(y, x)")
    assert info.value.position is not None


def test_parser_rejects_trailing_input():
    with pytest.raises(ParseError, match="trailing input"):
        parse("E(x, y) E(y, x)")


def test_parser_rejects_unclosed_paren():
    with pytest.raises(ParseError, match="expected"):
        parse("exists x. (E(x, x)")


def test_parser_rejects_quantifier_without_variable():
    with pytest.raises(ParseError, match="at least one variable"):
        parse("exists . (x = x)")


def test_parser_rejects_empty_input():
    with pytest.raises(ParseError, match="expected a formula"):
        parse("")


def test_parse_error_position_points_into_text():
    text = "E(x, y) @"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert 0 <= info.value.position < len(text)


# -- Engine malformed inputs -------------------------------------------------


def test_engine_answers_rejects_incomplete_free_order():
    engine = Engine()
    with pytest.raises(EvaluationError, match="free_order omits"):
        engine.answers(directed_chain(3), parse("E(x, y)"), free_order=(V("x"),))


def test_engine_evaluate_rejects_unbound_free_variables():
    engine = Engine()
    with pytest.raises(EvaluationError, match="no binding"):
        engine.evaluate(directed_chain(3), parse("E(x, y)"))


def test_engine_evaluate_rejects_out_of_universe_binding():
    engine = Engine()
    with pytest.raises(EvaluationError, match="not in universe"):
        engine.evaluate(
            directed_chain(3), parse("E(x, x)"), assignment={V("x"): 99}
        )


def test_engine_rejects_unknown_relation_symbol():
    engine = Engine()
    with pytest.raises(SignatureError, match="unknown relation"):
        engine.answers(directed_chain(3), parse("R(x, y, z)"))


def test_naive_rejects_unknown_relation_symbol():
    # The reference backend agrees on the rejection, not just the answers.
    with pytest.raises(SignatureError, match="unknown relation"):
        naive_answers(directed_chain(3), parse("R(x, y, z)"))


# -- bounded-degree evaluator ------------------------------------------------


def test_bounded_degree_rejects_open_formulas():
    with pytest.raises(LocalityError, match="needs a sentence"):
        BoundedDegreeEvaluator(parse("E(x, y)"), degree_bound=2)


def test_bounded_degree_rejects_negative_bound():
    with pytest.raises(LocalityError, match="non-negative"):
        BoundedDegreeEvaluator(parse("exists x. (E(x, x))"), degree_bound=-1)


def test_bounded_degree_rejects_negative_radius():
    with pytest.raises(LocalityError, match="radius must be non-negative"):
        BoundedDegreeEvaluator(parse("exists x. (E(x, x))"), degree_bound=2, radius=-1)


def test_bounded_degree_rejects_bad_threshold():
    with pytest.raises(LocalityError, match="threshold must be at least 1"):
        BoundedDegreeEvaluator(
            parse("exists x. (E(x, x))"), degree_bound=2, threshold=0
        )


def test_bounded_degree_rejects_bad_census_mode():
    with pytest.raises(LocalityError, match="census_mode"):
        BoundedDegreeEvaluator(
            parse("exists x. (E(x, x))"), degree_bound=2, census_mode="psychic"
        )


def test_bounded_degree_rejects_degree_violation():
    evaluator = BoundedDegreeEvaluator(parse("exists x. (E(x, x))"), degree_bound=2)
    with pytest.raises(LocalityError, match="Gaifman degree"):
        evaluator.evaluate(star_graph(6))


# -- circuits ----------------------------------------------------------------


def test_circuit_compilation_rejects_open_formulas():
    with pytest.raises(FormulaError, match="sentence"):
        compile_query(parse("E(x, y)"), GRAPH, 3)


def test_circuit_compilation_rejects_constants():
    pointed = Signature({"E": 2}, frozenset({"c"}))
    with pytest.raises(EvaluationError, match="constant-free"):
        compile_query(parse("exists x. (E(x, x))", constants={"c"}), pointed, 3)


def test_circuit_compilation_rejects_empty_domain():
    with pytest.raises(EvaluationError, match="at least 1"):
        compile_query(parse("exists x. (E(x, x))"), GRAPH, 0)


# -- structures and signatures -----------------------------------------------


def test_empty_universe_rejected():
    with pytest.raises(StructureError, match="non-empty"):
        Structure(GRAPH, [], {"E": []})


def test_undeclared_constant_rejected():
    with pytest.raises(SignatureError, match="undeclared constant"):
        Structure(GRAPH, [0], {"E": []}, {"c": 0})


def test_signature_rejects_bad_arity():
    with pytest.raises(SignatureError, match="positive integer arity"):
        Signature({"E": 0})


def test_signature_rejects_relation_constant_overlap():
    with pytest.raises(SignatureError, match="both as relation and constant"):
        Signature({"E": 2}, frozenset({"E"}))


# -- conformance-layer errors ------------------------------------------------


def test_backend_errors_are_fmt_errors():
    registry = default_registry()
    with pytest.raises(FMTError, match="unknown backend"):
        registry.get("quantum")
    with pytest.raises(FMTError, match="registered twice"):
        registry.register(Backend("naive", naive_answers))


def test_corpus_rejects_unreadable_file(tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(FMTError, match="broken.json"):
        load_corpus(tmp_path)


def test_corpus_case_with_bad_formula_raises_parse_error(tmp_path):
    (tmp_path / "bad-formula.json").write_text(
        '{"name": "bad", "description": "", "seed": 0,\n'
        ' "formula": "E(x,",\n'
        ' "structure": {"signature": {"relations": {"E": 2}, "constants": []},\n'
        '  "universe": [0], "relations": {"E": []}, "constants": {}}}\n'
    )
    with pytest.raises(FMTError):
        load_corpus(tmp_path)
