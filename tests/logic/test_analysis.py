"""Tests for formula analysis (quantifier rank, free variables, validation)."""

import pytest

from repro.errors import FormulaError, SignatureError
from repro.logic.analysis import (
    all_variables,
    analyze,
    constants_of,
    formula_depth,
    formula_size,
    free_variables,
    is_sentence,
    quantifier_rank,
    relations_of,
    require_sentence,
    subformulas,
    validate,
)
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.logic.syntax import Atom, Const, Var


class TestQuantifierRank:
    def test_atom_has_rank_zero(self):
        assert quantifier_rank(parse("E(x, y)")) == 0

    def test_single_quantifier(self):
        assert quantifier_rank(parse("exists x E(x, x)")) == 1

    def test_slide_example(self):
        # qr(∀x [∃w P(x,w) ∧ ∃y∃z R(x,y,z)]) = 3 (slide 41)
        formula = parse("forall x (exists w P(x, w) & exists y exists z R(x, y, z))")
        assert quantifier_rank(formula) == 3

    def test_rank_is_max_not_sum(self):
        formula = parse("exists x E(x, x) & exists y E(y, y)")
        assert quantifier_rank(formula) == 1

    def test_negation_transparent(self):
        assert quantifier_rank(parse("~exists x E(x, x)")) == 1

    def test_implication_takes_max(self):
        formula = parse("exists x E(x, x) -> exists y exists z E(y, z)")
        assert quantifier_rank(formula) == 2

    def test_iff_takes_max(self):
        formula = parse("exists x E(x, x) <-> E(y, y)")
        assert quantifier_rank(formula) == 1


class TestFreeVariables:
    def test_atom_variables_free(self):
        assert free_variables(parse("E(x, y)")) == {Var("x"), Var("y")}

    def test_quantifier_binds(self):
        assert free_variables(parse("exists x E(x, y)")) == {Var("y")}

    def test_sentence_has_none(self):
        assert free_variables(parse("exists x y E(x, y)")) == frozenset()

    def test_shadowed_use_outside_scope_is_free(self):
        formula = parse("(exists x E(x, x)) & P(x)")
        assert free_variables(formula) == {Var("x")}

    def test_all_variables_includes_bound(self):
        formula = parse("exists x E(x, y)")
        assert all_variables(formula) == {Var("x"), Var("y")}

    def test_constants_of(self):
        formula = parse("E(c, x)", constants={"c"})
        assert constants_of(formula) == {"c"}

    def test_relations_of(self):
        formula = parse("E(x, y) & P(x) | exists z R(z, z, z)")
        assert relations_of(formula) == {"E", "P", "R"}


class TestSentences:
    def test_is_sentence(self):
        assert is_sentence(parse("exists x E(x, x)"))
        assert not is_sentence(parse("E(x, y)"))

    def test_require_sentence_passes_sentences(self):
        sentence = parse("exists x E(x, x)")
        assert require_sentence(sentence) is sentence

    def test_require_sentence_rejects_open_formulas(self):
        with pytest.raises(FormulaError, match="x"):
            require_sentence(parse("E(x, x)"))


class TestSizeAndDepth:
    def test_atom_size_one(self):
        assert formula_size(parse("E(x, y)")) == 1

    def test_size_counts_nodes(self):
        assert formula_size(parse("E(x, y) & E(y, x)")) == 3

    def test_depth_of_atom(self):
        assert formula_depth(parse("E(x, y)")) == 1

    def test_depth_of_nested(self):
        assert formula_depth(parse("exists x (E(x, x) & ~E(x, x))")) == 4

    def test_subformulas_contains_self(self):
        formula = parse("exists x E(x, x)")
        assert formula in set(subformulas(formula))


class TestValidate:
    def test_valid_formula_passes(self):
        validate(parse("exists x E(x, y)"), GRAPH)

    def test_wrong_arity_rejected(self):
        with pytest.raises(SignatureError, match="arity"):
            validate(Atom("E", (Var("x"),)), GRAPH)

    def test_unknown_relation_rejected(self):
        with pytest.raises(SignatureError):
            validate(parse("R(x)"), GRAPH)

    def test_undeclared_constant_rejected(self):
        formula = Atom("E", (Const("c"), Var("x")))
        with pytest.raises(SignatureError, match="c"):
            validate(formula, GRAPH)

    def test_declared_constant_passes(self):
        sig = Signature({"E": 2}, constants={"c"})
        validate(Atom("E", (Const("c"), Var("x"))), sig)

    @pytest.mark.parametrize(
        "text",
        [
            "E(x) & E(y) & E(x, y)",
            "exists z (E(x, y) & (R(z) | E(z)) & ~E(y, z, x))",
            "forall x (P(x) -> (E(x, x) <-> E(x)))",
            "E(c, x) & E(d, x)",
        ],
    )
    def test_messages_match_a_walk_of_every_atom(self, text):
        # The analysis record keeps the first atom of each (relation,
        # arity); the first offender it reports must be the one a walk
        # over every atom in subformulas order would report.
        formula = parse(text, constants={"c", "d"})

        def walk_every_atom():
            for node in subformulas(formula):
                if isinstance(node, Atom):
                    arity = GRAPH.arity(node.relation)
                    if len(node.terms) != arity:
                        raise SignatureError(
                            f"atom {node!r} has {len(node.terms)} arguments, "
                            f"but {node.relation!r} has arity {arity}"
                        )
            for name in constants_of(formula):
                if not GRAPH.has_constant(name):
                    raise SignatureError(f"constant {name!r} is not declared in {GRAPH!r}")

        with pytest.raises(SignatureError) as expected:
            walk_every_atom()
        with pytest.raises(SignatureError) as reported:
            validate(formula, GRAPH)
        assert str(reported.value) == str(expected.value)

    def test_record_is_made_once_and_kept_on_the_formula(self):
        formula = parse("exists y (E(x, y) & E(y, c) & E(x, c))", constants={"c"})
        record = analyze(formula)
        assert analyze(formula) is record
        assert record.names == ("x",)
        assert record.rank == 1
        assert record.constants == {"c"}
        assert [atom.relation for atom in record.atoms] == ["E"]
        # Equal formulas stay equal and hash alike, record or not.
        twin = parse("exists y (E(x, y) & E(y, c) & E(x, c))", constants={"c"})
        assert twin == formula and hash(twin) == hash(formula)
