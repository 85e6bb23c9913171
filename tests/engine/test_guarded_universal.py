"""Guarded universals ∀z(¬A ∨ ψ) and the Division plan node.

The planner compiles a guarded universal whose ψ brings a variable the
guard atom A lacks to one :class:`~repro.engine.plan.Division` node — set
containment — instead of ¬∃¬ over a cylinder of ¬A. The properties here
hold the engine to the naive evaluator over random guarded universals,
hold the tuple reference executor to the columnar one on the engine's
own plan, pin down exactly when the rule fires, and check that the
node's output rows are charged to the row budget.

The random universals cover guards of arity 1–3 with z at any position
(and repeated), the constant ``c`` in guards and bodies, variables shared
between the guard and ψ, ψ with negation, disjunction, conjunction and a
nested quantifier, and the declined shapes (a positive guard, a body
that is not a disjunction). Random structures include isolated nodes and
empty relations, so some or every guard is empty; answers over four
variables force the tuple-of-int row encoding.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import ColumnarExecutor, Engine
from repro.engine.columnar.compile import compile_plan
from repro.engine.executor import Executor
from repro.engine.plan import AtomScan, Complement, Division, Plan, Union
from repro.errors import BudgetExceededError
from repro.eval.evaluator import answers as naive_answers
from repro.logic.analysis import free_variables
from repro.logic.parser import parse
from repro.logic.signature import Signature
from repro.logic.syntax import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Var,
)
from repro.resilience import Budget
from repro.structures.builders import random_graph
from repro.structures.structure import Structure

SIGNATURE = Signature({"P": 1, "E": 2, "T": 3}, constants={"c"})
RELATIONS = (("P", 1), ("E", 2), ("T", 3))
Z, T, C = Var("z"), Var("t"), Const("c")
FREE = tuple(Var(name) for name in ("x", "y", "u", "v"))

OUT_DOMINATED = parse("~(x = y) & forall z ((~E(x, z) | E(y, z)))")


# -- strategies ----------------------------------------------------------------


@st.composite
def structures(draw, max_size: int = 4) -> Structure:
    """Small P/E/T structures; shrinking empties relations and isolates nodes."""
    size = draw(st.integers(1, max_size))
    element = st.integers(0, size - 1)
    relations = {
        name: draw(st.sets(st.tuples(*[element] * arity), max_size=2 * size))
        for name, arity in RELATIONS
    }
    return Structure(
        SIGNATURE, range(size), relations, constants={"c": draw(element)}
    )


def atoms(pool: tuple) -> st.SearchStrategy[Formula]:
    terms = st.sampled_from(pool)
    relational = [
        st.tuples(*[terms] * arity).map(lambda args, name=name: Atom(name, args))
        for name, arity in RELATIONS
    ]
    return st.one_of(*relational, st.tuples(terms, terms).map(lambda pair: Eq(*pair)))


@st.composite
def guards(draw, pool: tuple = FREE[:3] + (Z, C)) -> Atom:
    """A relation atom with z at a drawn position (and maybe elsewhere too)."""
    name, arity = draw(st.sampled_from(RELATIONS))
    terms = draw(st.lists(st.sampled_from(pool), min_size=arity, max_size=arity))
    terms[draw(st.integers(0, arity - 1))] = Z
    return Atom(name, tuple(terms))


def bodies() -> st.SearchStrategy[Formula]:
    """ψ: atoms over x, y, u, v, z and c under ¬, ∨, ∧ and a nested ∃t/∀t."""
    nested = st.tuples(
        st.sampled_from((Exists, Forall)),
        st.sampled_from((And, Or)),
        atoms(FREE[:2] + (Z, T)),
        atoms(FREE[:2] + (Z, T)),
    ).map(lambda q: q[0](T, q[1]((q[2], q[3]))))
    leaves = st.one_of(atoms(FREE + (Z, Z, C)), nested)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(Or),
            st.tuples(inner, inner).map(And),
        ),
        max_leaves=3,
    )


@st.composite
def universals(draw) -> Forall:
    """∀z over ¬A ∨ ψ, mostly; a positive guard or a bare ¬A otherwise."""
    guard = draw(guards())
    shape = draw(st.sampled_from(("guarded",) * 4 + ("positive", "bare")))
    if shape == "bare":
        return Forall(Z, Not(guard))
    rest = draw(st.lists(bodies(), min_size=1, max_size=2))
    if draw(st.booleans()):
        # A positive disjunct that mentions z, so miniscoping keeps ψ
        # under the quantifier, and that favours the guard's variables,
        # so ψ shares some with it.
        keys = tuple(term for term in guard.terms if isinstance(term, Var) and term != Z)
        rest.append(draw(guards(keys * 2 + FREE + (Z,))))
    lead = Not(guard) if shape == "guarded" else guard
    position = draw(st.integers(0, len(rest)))
    return Forall(Z, Or(tuple(rest[:position]) + (lead,) + tuple(rest[position:])))


# -- the rule, restated --------------------------------------------------------


def fires(formula: Forall) -> bool:
    """The rule's conditions on one normalized universal."""
    body, var = formula.body, formula.var
    if not isinstance(body, Or):
        return False
    for position, child in enumerate(body.children):
        if not (
            isinstance(child, Not)
            and isinstance(child.body, Atom)
            and var in child.body.terms
        ):
            continue
        others = body.children[:position] + body.children[position + 1 :]
        mentioned = frozenset().union(*(free_variables(o) for o in others))
        if var in mentioned and not mentioned <= free_variables(child):
            return True
    return False


def subformulas(formula: Formula):
    yield formula
    if isinstance(formula, (And, Or)):
        for child in formula.children:
            yield from subformulas(child)
    elif isinstance(formula, (Not, Exists, Forall)):
        yield from subformulas(formula.body)


def nodes(plan: Plan):
    yield plan
    for child in plan.children():
        yield from nodes(child)


def divisions(plan: Plan) -> list[Division]:
    return [node for node in nodes(plan) if isinstance(node, Division)]


# -- properties ------------------------------------------------------------------


@given(structure=structures(), formula=universals())
def test_engine_matches_naive_under_universe_semantics(structure, formula):
    assert Engine().answers(structure, formula) == naive_answers(structure, formula)


@given(structure=structures(), formula=universals())
def test_tuple_executor_matches_columnar_on_the_engines_plan(structure, formula):
    plan = Engine().explain(structure, formula).plan
    reference = Executor(structure, structure.universe).run(plan)
    columnar = ColumnarExecutor(structure).run(plan)
    assert columnar.attributes == reference.attributes == plan.attributes
    assert columnar.rows == reference.rows


@given(structure=structures(), formula=universals())
def test_division_appears_exactly_when_the_rule_holds(structure, formula):
    explanation = Engine().explain(structure, formula)
    expected = sum(
        1
        for sub in subformulas(explanation.normalized)
        if isinstance(sub, Forall) and fires(sub)
    )
    found = divisions(explanation.plan)
    assert len(found) == expected
    size = len(structure.universe)
    for node in found:
        assert 0.0 <= node.estimated_rows <= float(size) ** node.arity
        assert isinstance(node.guard, AtomScan) and node.var in node.guard.attributes


# -- named shapes -----------------------------------------------------------------


def test_out_dominated_profiles_one_division_with_actuals():
    graph = random_graph(40, 0.1, seed=3)
    profile = Engine().profile(graph, OUT_DOMINATED)
    assert profile.answers == naive_answers(graph, OUT_DOMINATED)
    (node,) = divisions(profile.plan)
    assert node.label() == "Division[∀z]"
    assert profile.node_actuals(node) is not None
    assert "Division[∀z]" in str(profile)
    assert not any(isinstance(n, (Union, Complement)) for n in nodes(profile.plan))
    for step in nodes(profile.plan):
        actual = profile.node_actuals(step)
        if actual is not None and actual.rows > 0:
            assert step.estimated_rows >= 0.05, step.label()


@pytest.mark.parametrize(
    "text",
    [
        "forall y (~E(x, y) | E(y, x))",  # w̄ ⊆ x̄: already an antijoin
        "forall y ~E(x, y)",  # not a disjunction
        "forall z (E(x, z) | E(y, z))",  # no negated atom
    ],
)
def test_declined_shapes_keep_the_de_morgan_plan(text):
    graph = random_graph(12, 0.3, seed=5)
    formula = parse(text)
    plan = Engine().explain(graph, formula).plan
    assert not divisions(plan)
    assert Engine().answers(graph, formula) == naive_answers(graph, formula)


@pytest.mark.parametrize(
    "text",
    [
        "forall z (~E(z, z) | E(y, z))",  # repeated z, no x̄
        "forall z (~T(x, z, z) | E(z, y))",  # repeated z beside a key
        "forall z (~T(z, x, y) | T(y, u, z))",  # shared y, permuted positions
        "forall z (~E(c, z) | E(y, z))",  # constant in the guard
        "forall z (~P(z) | E(x, z) | ~E(z, y))",  # unary guard, dense ψ
        "forall z (~E(x, z) | exists t (E(z, t) & ~E(y, t)))",  # nested ψ
    ],
)
def test_guard_shapes_agree_with_naive(text):
    signature = Signature({"P": 1, "E": 2, "T": 3}, constants={"c"})
    rows = random_graph(6, 0.4, seed=11).tuples("E")
    structure = Structure(
        signature,
        range(7),  # node 6 is isolated: its guards are empty
        {
            "P": [(0,), (2,), (5,)],
            "E": rows,
            "T": [(a, b, b) for a, b in rows] + [(b, a, 3) for a, b in rows],
        },
        constants={"c": 4},
    )
    formula = parse(text, constants=signature)
    engine = Engine()
    plan = engine.explain(structure, formula).plan
    assert len(divisions(plan)) == 1
    expected = naive_answers(structure, formula)
    assert engine.answers(structure, formula) == expected
    reference = Executor(structure, structure.universe).run(plan)
    assert reference.project(tuple(sorted(plan.attributes))).rows == expected


def test_wide_division_runs_in_tuple_mode():
    """ū = (x, y, u, v) is past the packing arity: tuple-of-int keys."""
    signature = Signature({"T": 3})
    structure = Structure(
        signature,
        range(4),
        {"T": [(0, 1, 2), (0, 1, 3), (2, 2, 2), (1, 3, 2), (3, 1, 2), (3, 1, 3)]},
    )
    formula = parse("forall z (~T(x, y, z) | T(u, v, z))")
    engine = Engine()
    plan = engine.explain(structure, formula).plan
    (node,) = divisions(plan)
    assert node.arity == 4
    assert not compile_plan(plan, structure).packed
    expected = naive_answers(structure, formula)
    assert engine.answers(structure, formula) == expected
    reference = Executor(structure, structure.universe).run(plan)
    assert reference.project(("u", "v", "x", "y")).rows == expected


def test_every_guard_empty_keeps_the_whole_cylinder():
    structure = Structure(Signature({"E": 2}), range(3), {"E": []})
    formula = parse("forall z (~E(x, z) | E(y, z))")
    assert len(divisions(Engine().explain(structure, formula).plan)) == 1
    assert Engine().answers(structure, formula) == {
        (a, b) for a in range(3) for b in range(3)
    }


def test_division_rows_are_charged_to_the_row_budget():
    """The scans spend exactly the budget; the Division step trips it."""
    graph = random_graph(40, 0.1, seed=3)
    formula = parse("forall z (~E(x, z) | E(y, z))")
    scans = 2 * len(graph.tuples("E"))
    with pytest.raises(BudgetExceededError, match="at Division"):
        Engine().answers(graph, formula, budget=Budget(max_rows=scans))
