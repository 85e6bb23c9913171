"""Property suite: the engine agrees with the naive evaluator everywhere.

This is the engine's central invariant — `Engine.answers` ≡ naive
`answers` and `Engine.evaluate` ≡ naive `evaluate` on random structures ×
random formulas (universe semantics). One shared engine instance is used
across examples so the plan and answer caches are exercised under fire,
not just in targeted unit tests.
"""

from hypothesis import given, settings

import strategies as fmt_st
from repro.engine import Engine
from repro.engine.normalize import normalize
from repro.eval.evaluator import answers, evaluate
from repro.logic.builder import V
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.structures.builders import linear_order, random_graph
from repro.structures.structure import Structure

# Shared across all examples: caches must never change answers.
ENGINE = Engine()

TWO_RELATIONS = Signature({"E": 2, "P": 1})


@given(fmt_st.graphs(max_size=5), fmt_st.formulas(max_leaves=5))
def test_answers_matches_naive_on_graphs(structure, formula):
    assert ENGINE.answers(structure, formula) == answers(structure, formula)


@given(
    fmt_st.graphs(max_size=4, signature=TWO_RELATIONS),
    fmt_st.formulas(signature=TWO_RELATIONS, max_leaves=5),
)
def test_answers_matches_naive_on_mixed_signature(structure, formula):
    assert ENGINE.answers(structure, formula) == answers(structure, formula)


@given(fmt_st.graphs(max_size=5), fmt_st.sentences(max_leaves=5))
def test_evaluate_matches_naive_on_sentences(structure, sentence):
    assert ENGINE.evaluate(structure, sentence) == evaluate(structure, sentence)


@given(fmt_st.formulas(max_leaves=6))
def test_normalize_preserves_semantics(formula):
    # Normalization may drop vacuous free variables, so compare through
    # the naive evaluator's boolean verdict on every assignment instead.
    import itertools

    from repro.logic.analysis import free_variables

    structure = random_graph(3, 0.5, seed=11)
    normalized = normalize(formula)
    # Normalization can only drop (vacuous) free variables, never add any.
    assert free_variables(normalized) <= free_variables(formula)
    order = sorted(free_variables(formula), key=lambda var: var.name)
    for values in itertools.product(structure.universe, repeat=len(order)):
        env = dict(zip(order, values))
        assert evaluate(structure, formula, env) == evaluate(structure, normalized, env)


def test_free_order_with_extra_variables():
    structure = random_graph(4, 0.5, seed=3)
    formula = parse("E(x, y)")
    order = (V("y"), V("x"), V("z"))
    assert ENGINE.answers(structure, formula, free_order=order) == answers(
        structure, formula, free_order=order
    )


def test_query_zoo_corpus_agrees():
    from repro.queries.zoo import fo_boolean_corpus, fo_graph_corpus

    structures = [random_graph(n, p, seed=s) for n, p, s in [(4, 0.4, 1), (5, 0.6, 2)]]
    for query in fo_graph_corpus():
        for structure in structures:
            assert ENGINE.answers(
                structure, query.formula, free_order=query.variables
            ) == query(structure)
    for query in fo_boolean_corpus():
        for structure in structures:
            assert ENGINE.evaluate(structure, query.formula) == query(structure)


def test_order_signature_with_constants():
    sig = Signature({"<": 2, "P": 1}, constants={"c"})
    structure = Structure(
        sig,
        [0, 1, 2, 3],
        {"<": [(a, b) for a in range(4) for b in range(4) if a < b], "P": [(1,), (3,)]},
        constants={"c": 2},
    )
    for text in ["P(c)", "x < c", "c < c", "exists x (x < c & P(x))", "~(x = c)"]:
        formula = parse(text, constants=sig)
        assert ENGINE.answers(structure, formula) == answers(structure, formula), text


def test_sentence_answers_convention():
    # Sentences answer {()} for true and {} for false, like the naive path.
    order = linear_order(3)
    assert ENGINE.answers(order, parse("forall x forall y (x < y | y < x | x = y)")) == {
        ()
    }
    assert ENGINE.answers(order, parse("exists x (x < x)")) == frozenset()
