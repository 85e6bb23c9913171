"""Tests for the exact almost-sure decision procedure (the 0–1 law)."""

import pytest

from repro.errors import FMTError, FormulaError
from repro.eval.evaluator import evaluate
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.zero_one.asymptotic import (
    decide_almost_sure,
    decide_via_witness,
    mu_estimate_sentence,
    mu_limit,
)
from repro.zero_one.random_structures import mu_estimate

UNARY = Signature({"P": 1})


class TestSlideExamples:
    def test_q1_complete_graph_almost_never(self):
        # Q1 = ∀x∀y E(x,y): almost no graph is complete.
        assert mu_limit(parse("forall x forall y E(x, y)"), GRAPH) == 0

    def test_q2_extension_property_almost_surely(self):
        # Q2 (with the x ≠ y guard the slide leaves implicit).
        q2 = parse("forall x forall y (~(x = y) -> exists z (E(z, x) & ~E(z, y)))")
        assert mu_limit(q2, GRAPH) == 1

    def test_q2_verbatim_is_almost_never(self):
        # As literally written (x = y allowed) the body is contradictory.
        q2_verbatim = parse("forall x forall y exists z (E(z, x) & ~E(z, y))")
        assert mu_limit(q2_verbatim, GRAPH) == 0


class TestBasicDecisions:
    def test_tautology(self):
        assert decide_almost_sure(parse("forall x (x = x)"), GRAPH)

    def test_contradiction(self):
        assert not decide_almost_sure(parse("exists x ~(x = x)"), GRAPH)

    def test_some_loop_almost_surely(self):
        assert decide_almost_sure(parse("exists x E(x, x)"), GRAPH)

    def test_all_loops_almost_never(self):
        assert not decide_almost_sure(parse("forall x E(x, x)"), GRAPH)

    def test_negation_flips(self):
        sentence = parse("exists x E(x, x)")
        negated = parse("~exists x E(x, x)")
        assert decide_almost_sure(sentence, GRAPH) != decide_almost_sure(negated, GRAPH)

    def test_diameter_two_almost_surely(self):
        sentence = parse(
            "forall x forall y (x = y | E(x, y) | exists z (E(x, z) & E(z, y)))"
        )
        assert decide_almost_sure(sentence, GRAPH)

    def test_unary_signature(self):
        assert decide_almost_sure(parse("exists x P(x)"), UNARY)
        assert not decide_almost_sure(parse("forall x P(x)"), UNARY)

    def test_open_formula_rejected(self):
        with pytest.raises(FormulaError):
            decide_almost_sure(parse("E(x, y)"), GRAPH)

    def test_constants_rejected(self):
        sig = Signature({"E": 2}, constants={"c"})
        with pytest.raises(FMTError):
            decide_almost_sure(parse("exists x (x = x)"), sig)


class TestZeroOneLaw:
    """Every FO sentence gets 0 or 1 — and it matches sampling."""

    @pytest.mark.parametrize(
        "text",
        [
            "exists x E(x, x)",
            "forall x exists y E(x, y)",
            "exists x forall y E(x, y)",
            "exists x exists y (E(x, y) & E(y, x) & ~(x = y))",
            "forall x exists y (~(x = y) & E(x, y) & E(y, x))",
        ],
    )
    def test_decision_matches_empirical_trend(self, text):
        sentence = parse(text)
        limit = mu_limit(sentence, GRAPH)
        estimate = mu_estimate(
            lambda s: evaluate(s, sentence), GRAPH, 24, samples=40, seed=7
        )
        if limit == 1:
            assert estimate.value > 0.5
        else:
            assert estimate.value < 0.5

    def test_every_corpus_sentence_gets_zero_or_one(self):
        from repro.queries.zoo import fo_boolean_corpus

        for query in fo_boolean_corpus():
            assert mu_limit(query.formula, GRAPH) in (0, 1)


class TestWitnessRoute:
    def test_agrees_with_symbolic_route_rank_two(self):
        from repro.zero_one.extension_axioms import find_extension_witness

        witness = find_extension_witness(GRAPH, 1, seed=2)
        for text in [
            "exists x E(x, x)",
            "forall x exists y E(x, y)",
            "exists x forall y E(x, y)",
            "forall x exists y (E(x, y) & E(y, x))",
        ]:
            sentence = parse(text)
            assert decide_via_witness(sentence, GRAPH, witness=witness) == decide_almost_sure(
                sentence, GRAPH
            ), text

    def test_witness_found_automatically_for_low_rank(self):
        sentence = parse("exists x E(x, x)")
        assert decide_via_witness(sentence, GRAPH, seed=1) == decide_almost_sure(
            sentence, GRAPH
        )


class TestMuEstimateSentence:
    def test_converges_toward_almost_sure_value(self):
        # μ(∃x∃y E(x,y)) = 1: at n = 8 nearly every sample satisfies it.
        estimate = mu_estimate_sentence(
            parse("exists x exists y E(x, y)"), GRAPH, 8, samples=50, seed=0
        )
        assert estimate.value > 0.9

    def test_rejects_open_formulas(self):
        with pytest.raises(FormulaError):
            mu_estimate_sentence(parse("E(x, y)"), GRAPH, 4)

    def test_matches_mu_estimate_of_the_model_check(self):
        sentence = parse("exists x E(x, x)")
        assert mu_estimate_sentence(sentence, GRAPH, 5, samples=60, seed=7) == (
            mu_estimate(lambda s: evaluate(s, sentence), GRAPH, 5, samples=60, seed=7)
        )
