"""End-to-end budget semantics: correct answer or typed error, never a hang.

These tests pin the S17 contract at the places a budget actually bites:
mid-join in the engine executor, mid-census in the locality pipeline,
mid-expansion in the EF solver and per-binding in the naive evaluator.
"""

import time

import pytest

from repro.errors import BudgetExceededError
from repro.engine.engine import Engine
from repro.eval.evaluator import answers as naive_answers
from repro.eval.evaluator import evaluate as naive_evaluate
from repro.games.ef import ef_equivalent
from repro.locality.bounded_degree import BoundedDegreeEvaluator
from repro.logic.parser import parse
from repro.resilience import Budget, CancelToken
from repro.structures.builders import complete_graph, directed_cycle, linear_order


def _expired_token(stride: int = 1) -> CancelToken:
    token = Budget(deadline_ms=0.001, stride=stride).start()
    time.sleep(0.002)
    return token


class TestEngineBudgets:
    def test_row_budget_trips_mid_query(self):
        engine = Engine()
        structure = complete_graph(6)
        query = parse("exists z. (E(x,z) and E(z,y))")
        with pytest.raises(BudgetExceededError) as info:
            engine.answers(structure, query, budget=Budget(max_rows=20))
        assert info.value.spent > info.value.budget
        assert "row budget exceeded" in str(info.value)

    def test_generous_row_budget_matches_unbudgeted(self):
        engine = Engine()
        structure = complete_graph(5)
        query = parse("exists z. (E(x,z) and E(z,y))")
        expected = engine.answers(structure, query)
        assert engine.answers(structure, query, budget=Budget(max_rows=10_000)) == expected

    def test_deadline_trips_engine_evaluate(self):
        engine = Engine()
        structure = complete_graph(8)
        sentence = parse("forall x. forall y. forall z. ((E(x,y) and E(y,z)) -> E(x,z))")
        with pytest.raises(BudgetExceededError, match="deadline exceeded"):
            engine.evaluate(structure, sentence, budget=_expired_token())

    def test_correct_answer_or_typed_error(self):
        """The acceptance property: under any budget, an engine answer is
        either the reference answer or a typed refusal — never wrong."""
        structure = complete_graph(4)
        query = parse("exists z. (E(x,z) and E(z,y))")
        reference = naive_answers(structure, query)
        for max_rows in (1, 5, 25, 125, 10_000):
            engine = Engine()  # fresh caches: a hit would skip enforcement
            try:
                result = engine.answers(structure, query, budget=Budget(max_rows=max_rows))
            except BudgetExceededError:
                continue
            assert result == reference, f"wrong answer under max_rows={max_rows}"


class TestCensusBudgets:
    def test_deadline_trips_mid_census(self):
        evaluator = BoundedDegreeEvaluator(
            parse("forall x. exists y. E(x,y)"), degree_bound=2
        )
        with pytest.raises(BudgetExceededError, match="deadline exceeded"):
            evaluator.evaluate(directed_cycle(50), cancel_token=_expired_token())

    def test_generous_budget_matches_unbudgeted(self):
        sentence = parse("forall x. exists y. E(x,y)")
        budgeted = BoundedDegreeEvaluator(sentence, degree_bound=2)
        token = Budget(deadline_ms=60_000).start()
        assert budgeted.evaluate(directed_cycle(9), cancel_token=token) is True


class TestSolverBudgets:
    def test_node_budget_trips_ef_solver(self):
        token = CancelToken(max_solver_nodes=5)
        with pytest.raises(BudgetExceededError, match="solver-node budget"):
            ef_equivalent(linear_order(5), linear_order(6), rounds=3, cancel_token=token)

    def test_generous_node_budget_matches_unbudgeted(self):
        left, right = linear_order(3), linear_order(4)
        expected = ef_equivalent(left, right, rounds=2)
        token = CancelToken(max_solver_nodes=10_000_000)
        assert ef_equivalent(left, right, rounds=2, cancel_token=token) == expected


class TestEvaluatorBudgets:
    def test_deadline_trips_per_binding(self):
        structure = complete_graph(10)
        sentence = parse("forall x. forall y. forall z. ((E(x,y) and E(y,z)) -> E(x,z))")
        with pytest.raises(BudgetExceededError, match="deadline exceeded"):
            naive_evaluate(structure, sentence, cancel_token=_expired_token())

