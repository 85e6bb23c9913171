"""EXPLAIN ANALYZE tests: ``Engine.profile`` actuals vs ``Engine.answers``."""

import pytest

from repro.engine import ColumnarExecutor, Engine, ProfiledExplanation
from repro.engine.plan import fused_steps
from repro.errors import EvaluationError
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.logic.syntax import Var
from repro.queries.zoo import fo_graph_corpus
from repro.structures.builders import random_graph

DISTANCE_TWO = parse("exists z (E(x, z) & E(z, y)) & ~E(x, y)")


def plan_nodes(plan):
    yield plan
    for child in plan.children():
        yield from plan_nodes(child)


class TestProfile:
    def test_profile_answers_match_engine_and_naive(self):
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        profile = engine.profile(graph, DISTANCE_TWO)
        assert isinstance(profile, ProfiledExplanation)
        assert profile.answers == engine.answers(graph, DISTANCE_TWO)
        assert profile.answers == naive_answers(graph, DISTANCE_TWO)

    def test_every_plan_node_has_actuals(self):
        """Every node has actuals or is marked fused into an ancestor
        that has them, never both, and the root always has actuals."""
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        for formula in [DISTANCE_TWO] + [query.formula for query in fo_graph_corpus()]:
            profile = engine.profile(graph, formula)
            assert profile.node_actuals(profile.plan).rows == len(profile.answers)
            fused = fused_steps(profile.plan, profile.actuals)
            for node in plan_nodes(profile.plan):
                actuals = profile.node_actuals(node)
                assert (actuals is None) == (id(node) in fused), node.label()
                assert actuals is None or actuals.seconds >= 0.0

    def test_fused_nodes_are_marked_with_their_covering_step(self):
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        # ∀y ¬E(x, y) plans as ¬π(¬¬E): the double complement cancels, so
        # the scan's step is recorded under the outer complement.
        profile = engine.profile(graph, parse("forall y ~E(x, y)"))
        outer = profile.plan.child.child
        inner, scan = outer.child, outer.child.child
        assert (outer.label(), inner.label()) == ("Complement[x, y]",) * 2
        fused = fused_steps(profile.plan, profile.actuals)
        assert fused[id(inner)] is outer and fused[id(scan)] is outer
        assert profile.node_actuals(outer).rows == len(graph.tuples("E"))

        profile = engine.profile(graph, DISTANCE_TWO)
        project = profile.plan.left
        join = project.child
        assert (project.label(), join.label()) == ("Project[x, y]", "Join[z]")
        assert profile.node_actuals(join) is None
        assert fused_steps(profile.plan, profile.actuals)[id(join)] is project
        assert "est=85.3  fused into Project[x, y]" in str(profile)

    def test_actual_rows_count_the_node_they_are_keyed_under(self):
        """Re-running any node that has actuals as a plan of its own
        returns exactly that many rows — fused steps never record under
        a node whose relation they did not compute."""
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        for query in fo_graph_corpus():
            profile = engine.profile(graph, query.formula)
            for node in plan_nodes(profile.plan):
                actuals = profile.node_actuals(node)
                if actuals is not None:
                    rows = ColumnarExecutor(graph).run(node).rows
                    assert actuals.rows == len(rows), (query.name, node.label())

    def test_root_actual_rows_equal_answer_count(self):
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        profile = engine.profile(graph, DISTANCE_TWO)
        assert profile.node_actuals(profile.plan).rows == len(profile.answers)

    def test_estimates_preserved_next_to_actuals(self):
        engine = Engine()
        profile = engine.profile(random_graph(12, 0.3, seed=3), DISTANCE_TWO)
        explanation = engine.explain(random_graph(12, 0.3, seed=3), DISTANCE_TWO)
        assert profile.plan == explanation.plan  # same cached plan, same estimates
        text = str(profile)
        assert "est=" in text
        assert "actual=" in text
        assert "answer rows" in text

    def test_profile_works_without_telemetry_enabled(self):
        # EXPLAIN ANALYZE must not require the global switch: the
        # recorder rides on the executor, not on the tracer.
        from repro import telemetry

        assert_was = telemetry.is_enabled()
        telemetry.disable()
        try:
            engine = Engine()
            profile = engine.profile(random_graph(10, 0.25, seed=4), DISTANCE_TWO)
            assert profile.actuals
        finally:
            if assert_was:
                telemetry.enable()

    def test_profile_bypasses_answer_cache(self):
        engine = Engine()
        graph = random_graph(10, 0.25, seed=4)
        engine.answers(graph, DISTANCE_TWO)
        executions = engine.stats.executions
        engine.profile(graph, DISTANCE_TWO)
        assert engine.stats.executions == executions + 1

    def test_profile_sentence_and_custom_free_order(self):
        engine = Engine()
        graph = random_graph(8, 0.4, seed=5)
        sentence = parse("exists x exists y (E(x, y) & E(y, x))")
        profile = engine.profile(graph, sentence)
        assert profile.answers in (frozenset(), frozenset({()}))
        reordered = engine.profile(
            graph, DISTANCE_TWO, free_order=(Var("y"), Var("x"))
        )
        assert reordered.answers == engine.answers(
            graph, DISTANCE_TWO, free_order=(Var("y"), Var("x"))
        )

    def test_profile_rejects_bad_free_order(self):
        engine = Engine()
        graph = random_graph(8, 0.4, seed=5)
        with pytest.raises(EvaluationError):
            engine.profile(graph, DISTANCE_TWO, free_order=(Var("x"),))
        with pytest.raises(EvaluationError):
            engine.profile(
                graph, DISTANCE_TWO, free_order=(Var("x"), Var("x"), Var("y"))
            )

    def test_profile_across_the_query_zoo(self):
        engine = Engine()
        graph = random_graph(10, 0.2, seed=6)
        for query in fo_graph_corpus():
            profile = engine.profile(graph, query.formula, query.variables)
            assert profile.answers == naive_answers(
                graph, query.formula, query.variables
            ), query.name
