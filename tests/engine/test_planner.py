"""Unit tests for normalization, statistics, and the cost-based planner."""

import pytest

from repro.engine import Engine, collect_stats
from repro.engine.normalize import miniscope, normalize
from repro.engine.plan import (
    AntiJoin,
    AtomScan,
    Complement,
    Join,
    Project,
    Union,
    explain_plan,
)
from repro.engine.planner import Planner
from repro.logic.builder import V, and_, atom, exists, not_
from repro.logic.parser import parse
from repro.logic.signature import Signature
from repro.logic.syntax import And, Exists, Or
from repro.structures.builders import random_graph
from repro.structures.structure import Structure

# A structure with a big and a small relation, so cost decisions show.
SIG = Signature({"Big": 2, "Small": 2})
BIG = [(a, b) for a in range(8) for b in range(8)]
SMALL = [(0, 1), (1, 2)]
SKEWED = Structure(SIG, range(8), {"Big": BIG, "Small": SMALL})


def plan_of(structure, text):
    engine = Engine()
    return engine.explain(structure, parse(text)).plan


def scans_left_to_right(plan):
    """The relation names of AtomScan leaves, leftmost-first."""
    if isinstance(plan, AtomScan):
        return [plan.relation]
    result = []
    for child in plan.children():
        result.extend(scans_left_to_right(child))
    return result


class TestStats:
    def test_catalog_numbers(self):
        stats = collect_stats(SKEWED)
        assert stats.universe_size == 8
        assert stats.cardinality("Big") == 64
        assert stats.cardinality("Small") == 2
        assert stats.cardinality("Missing") == 0
        assert not stats.has_constants

    def test_stats_are_memoized_per_structure(self):
        assert collect_stats(SKEWED) is collect_stats(SKEWED)


class TestNormalize:
    def test_miniscope_distributes_exists_over_or(self):
        formula = exists(V("x"), atom("E", "x", "y") | atom("E", "y", "x"))
        pushed = miniscope(formula)
        assert isinstance(pushed, Or)
        assert all(isinstance(child, Exists) for child in pushed.children)

    def test_miniscope_slides_exists_past_independent_conjunct(self):
        formula = exists(V("x"), and_(atom("E", "x", "y"), atom("E", "y", "y")))
        pushed = miniscope(formula)
        assert isinstance(pushed, And)
        kinds = sorted(type(child).__name__ for child in pushed.children)
        assert kinds == ["Atom", "Exists"]

    def test_vacuous_quantifier_dropped(self):
        formula = exists(V("x"), atom("E", "y", "y"))
        assert miniscope(formula) == atom("E", "y", "y")

    def test_normalize_pushes_negation_to_atoms(self):
        formula = not_(exists(V("x"), atom("E", "x", "y")))
        normalized = normalize(formula)
        # ¬∃x E(x,y) → ∀x ¬E(x,y): the Not must sit on the atom.
        assert "forall" in repr(normalized)


class TestPlannerCostOrdering:
    def test_greedy_join_starts_with_smaller_relation(self):
        plan = plan_of(SKEWED, "Big(x, y) & Small(y, z)")
        assert scans_left_to_right(plan)[0] == "Small"

    def test_sharing_preferred_over_cartesian(self):
        # Joining u–v chains: the planner must never pick the pair with
        # no shared attribute while a sharing partner exists.
        plan = plan_of(SKEWED, "Big(x, y) & Big(u, v) & Small(y, u)")

        def no_cartesian(node):
            if isinstance(node, Join):
                shared = set(node.left.attributes) & set(node.right.attributes)
                assert shared, f"cartesian product in plan:\n{explain_plan(node)}"
            for child in node.children():
                no_cartesian(child)

        no_cartesian(plan)

    def test_selection_pushed_into_scan(self):
        sig = Signature({"R": 2}, constants={"c"})
        structure = Structure(
            sig, [0, 1, 2], {"R": [(0, 1), (1, 1), (2, 0)]}, constants={"c": 1}
        )
        engine = Engine()
        plan = engine.explain(structure, parse("R(c, x)", constants={"c"})).plan
        scans = [n for n in _walk(plan) if isinstance(n, AtomScan)]
        assert scans and scans[0].const_selects == ((0, "c"),)

    def test_repeated_variable_becomes_scan_equality(self):
        plan = plan_of(SKEWED, "Big(x, x)")
        scans = [n for n in _walk(plan) if isinstance(n, AtomScan)]
        assert scans and scans[0].equalities == ((0, 1),)

    def test_covered_negation_compiles_to_antijoin(self):
        plan = plan_of(SKEWED, "Big(x, y) & ~Small(x, y)")
        kinds = {type(n) for n in _walk(plan)}
        assert AntiJoin in kinds
        assert Complement not in kinds

    def test_uncovered_negation_falls_back_to_complement(self):
        plan = plan_of(SKEWED, "~Small(x, y)")
        kinds = {type(n) for n in _walk(plan)}
        assert Complement in kinds

    def test_estimates_decrease_with_selections(self):
        stats = collect_stats(SKEWED)
        planner = Planner(stats)
        loose = planner.plan(normalize(parse("Big(x, y)")), ("x", "y"))
        tight = planner.plan(normalize(parse("Big(x, x)")), ("x",))
        assert tight.estimated_rows < loose.estimated_rows

    def test_explain_renders_costed_tree(self):
        engine = Engine()
        explanation = engine.explain(SKEWED, parse("Big(x, y) & Small(y, z)"))
        text = str(explanation)
        assert "est=" in text and "Scan[Small]" in text and "Join" in text
        assert "fast path" in text

    def test_union_estimate_stays_inside_the_domain_power(self):
        """Inclusion–exclusion: parts of density 0.6 each sum past d^k,
        yet the union stays below d^k and its complement above 0."""
        dense = Structure(
            Signature({"E": 2}),
            range(5),
            {"E": [(a, b) for a in range(5) for b in range(5) if (a + b) % 5 < 3]},
        )
        plan = plan_of(dense, "forall z (E(x, z) | E(y, z))")
        (negated,) = [
            n
            for n in _walk(plan)
            if isinstance(n, Complement) and isinstance(n.child, Union)
        ]
        union = negated.child
        full = 5.0**union.arity
        assert sum(part.estimated_rows for part in union.parts) > full
        assert union.estimated_rows <= full
        assert negated.estimated_rows > 0.0

    def test_exists_becomes_projection(self):
        plan = plan_of(SKEWED, "exists y Small(x, y)")
        assert isinstance(plan, Project) or plan.attributes == ("x",)
        assert plan.attributes == ("x",)


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


class TestPlannerAgainstExecution:
    def test_plan_estimates_are_finite_and_nonnegative(self):
        structure = random_graph(6, 0.3, seed=5)
        engine = Engine()
        for text in [
            "E(x, y) & E(y, z) & ~E(x, z)",
            "forall y (E(x, y) -> exists z E(y, z))",
            "exists x forall y (x = y | ~E(y, x))",
        ]:
            plan = engine.explain(structure, parse(text)).plan
            for node in _walk(plan):
                assert node.estimated_rows >= 0.0
                assert node.estimated_rows == pytest.approx(node.estimated_rows)
