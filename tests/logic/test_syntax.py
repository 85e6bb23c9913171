"""Tests for the formula AST."""

import copy
import pickle

import pytest

from repro.errors import FormulaError
from repro.logic.analysis import subformulas
from repro.logic.syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Const,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Var,
)


class TestTerms:
    def test_var_equality_is_structural(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")

    def test_var_hashable(self):
        assert len({Var("x"), Var("x"), Var("y")}) == 2

    def test_empty_var_name_rejected(self):
        with pytest.raises(FormulaError):
            Var("")

    def test_const_repr_distinct_from_var(self):
        assert repr(Const("c")) != repr(Var("c"))

    def test_const_requires_name(self):
        with pytest.raises(FormulaError):
            Const("")


class TestNodes:
    def test_atom_stores_terms_as_tuple(self):
        atom = Atom("E", [Var("x"), Var("y")])
        assert isinstance(atom.terms, tuple)

    def test_atom_rejects_non_terms(self):
        with pytest.raises(FormulaError):
            Atom("E", ("x", "y"))  # type: ignore[arg-type]

    def test_atom_rejects_empty_relation(self):
        with pytest.raises(FormulaError):
            Atom("", (Var("x"),))

    def test_eq_rejects_non_terms(self):
        with pytest.raises(FormulaError):
            Eq("x", Var("y"))  # type: ignore[arg-type]

    def test_not_rejects_non_formula(self):
        with pytest.raises(FormulaError):
            Not(Var("x"))  # type: ignore[arg-type]

    def test_and_rejects_non_formula_children(self):
        with pytest.raises(FormulaError):
            And((Var("x"),))  # type: ignore[arg-type]

    def test_quantifier_requires_var(self):
        with pytest.raises(FormulaError):
            Exists(Const("c"), TRUE)  # type: ignore[arg-type]
        with pytest.raises(FormulaError):
            Forall("x", TRUE)  # type: ignore[arg-type]

    def test_constants_are_canonical(self):
        assert Top() == TRUE
        assert Bottom() == FALSE


class TestValueSemantics:
    def test_equal_formulas_are_equal(self):
        first = Exists(Var("x"), Atom("E", (Var("x"), Var("x"))))
        second = Exists(Var("x"), Atom("E", (Var("x"), Var("x"))))
        assert first == second
        assert hash(first) == hash(second)

    def test_formulas_usable_as_dict_keys(self):
        formula = And((TRUE, FALSE))
        assert {formula: 1}[And((TRUE, FALSE))] == 1


class TestOperatorSugar:
    def test_and_operator(self):
        left, right = Atom("E", (Var("x"), Var("y"))), TRUE
        assert (left & right) == And((left, right))

    def test_or_operator(self):
        left, right = Atom("E", (Var("x"), Var("y"))), TRUE
        assert (left | right) == Or((left, right))

    def test_invert_operator(self):
        body = Atom("E", (Var("x"), Var("y")))
        assert ~body == Not(body)

    def test_rshift_is_implication(self):
        left, right = TRUE, FALSE
        assert (left >> right) == Implies(left, right)


class TestRepr:
    def test_atom_repr(self):
        assert repr(Atom("E", (Var("x"), Var("y")))) == "E(x, y)"

    def test_iff_repr_round_trips_concept(self):
        formula = Iff(TRUE, FALSE)
        assert "<->" in repr(formula)

    def test_empty_and_reprs_as_true(self):
        assert repr(And(())) == "true"

    def test_empty_or_reprs_as_false(self):
        assert repr(Or(())) == "false"


def _sample() -> Exists:
    x, y = Var("x"), Var("y")
    edge = Atom("E", (x, y))
    return Exists(
        y,
        And((edge, Not(Eq(x, Const("c"))), Or((Top(), Bottom())), Iff(edge, Implies(edge, edge)))),
    )


class TestKeptHash:
    def test_kept_hash_is_the_dataclass_hash(self):
        formula = _sample()
        assert hash(formula) == type(formula)._field_hash(formula)
        assert hash(formula) == hash(_sample())  # equal formulas, equal hashes
        assert formula.__dict__["_hash"] == hash(formula)

    def test_equality_ignores_the_kept_hash(self):
        hashed, fresh = _sample(), _sample()
        hash(hashed)
        assert "_hash" not in fresh.__dict__
        assert hashed == fresh and fresh == hashed

    def test_each_node_hashes_once(self, formula_hashes):
        formula = _sample()
        first = hash(formula)
        # Atom E(x, y) occurs three times as one object: hashed once.
        assert sorted(formula_hashes) == sorted(
            ["Exists", "And", "Atom", "Not", "Eq", "Or", "Top", "Bottom", "Iff", "Implies"]
        )
        formula_hashes.clear()
        assert hash(formula) == first
        assert {formula: 1}[formula] == 1
        assert formula_hashes == []

    @pytest.mark.parametrize("protocol", [0, 2, pickle.HIGHEST_PROTOCOL])
    def test_pickles_and_copies_drop_the_kept_hash(self, protocol):
        formula = _sample()
        hash(formula)
        for clone in (
            pickle.loads(pickle.dumps(formula, protocol)),
            copy.copy(formula),
            copy.deepcopy(formula),
        ):
            assert "_hash" not in clone.__dict__
            assert clone == formula and hash(clone) == hash(formula)
        clone = pickle.loads(pickle.dumps(formula, protocol))
        assert not any("_hash" in node.__dict__ for node in subformulas(clone))
