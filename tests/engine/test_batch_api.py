"""Tests for Engine.answers_batch / evaluate_batch / evaluate_many."""

import pytest

from repro.engine import Engine
from repro.errors import BudgetExceededError, EvaluationError
from repro.eval.evaluator import answers as naive_answers
from repro.eval.evaluator import evaluate as naive_evaluate
from repro.logic.parser import parse
from repro.queries.zoo import fo_graph_corpus
from repro.resilience import Budget
from repro.structures.builders import complete_graph, directed_cycle, random_graph
from repro.structures.structure import Structure

DISTANCE_TWO = parse("exists z (E(x, z) & E(z, y)) & ~E(x, y)")
MUTUAL = parse("exists x exists y (E(x, y) & E(y, x))")
HAS_LOOP = parse("exists x E(x, x)")
EDGE = parse("E(x, y)")
ONE_WAY = parse("E(x, y) & ~E(y, x)")


def _graphs():
    return [random_graph(n, 0.25, seed=n) for n in (6, 8, 10)]


class TestAnswersBatch:
    def test_matches_naive_answers(self):
        engine = Engine()
        graphs = _graphs()
        batched = engine.answers_batch([(g, DISTANCE_TWO) for g in graphs])
        assert batched == [naive_answers(g, DISTANCE_TWO) for g in graphs]

    def test_results_in_request_order(self):
        engine = Engine()
        graphs = _graphs()
        requests = [(g, f) for g in graphs for f in (DISTANCE_TWO, MUTUAL)]
        batched = engine.answers_batch(requests)
        singles = [Engine().answers(g, f) for g, f in requests]
        assert batched == singles

    def test_duplicate_requests_execute_once(self):
        engine = Engine()
        graph = _graphs()[0]
        results = engine.answers_batch([(graph, DISTANCE_TWO)] * 5)
        assert engine.stats.executions == 1
        assert all(result == results[0] for result in results)

    def test_answer_cache_hits_skip_execution(self):
        engine = Engine()
        graph = _graphs()[0]
        warm = engine.answers(graph, DISTANCE_TWO)
        executions = engine.stats.executions
        batched = engine.answers_batch([(graph, DISTANCE_TWO)])
        assert batched == [warm]
        assert engine.stats.executions == executions

    def test_results_merge_into_answer_cache(self):
        engine = Engine()
        graph = _graphs()[0]
        engine.answers_batch([(graph, DISTANCE_TWO)])
        executions = engine.stats.executions
        engine.answers(graph, DISTANCE_TWO)  # must be a cache hit
        assert engine.stats.executions == executions

    def test_execution_stats_merge_back(self):
        engine = Engine()
        graphs = _graphs()
        engine.answers_batch([(g, DISTANCE_TWO) for g in graphs])
        assert engine.stats.executions == len(graphs)
        assert engine.stats.execution.rows_materialized > 0

    def test_zoo_corpus_batch_matches_single_calls(self):
        engine = Engine()
        reference = Engine()
        graphs = [random_graph(n, 0.15, seed=n) for n in (7, 9, 11)]
        for query in fo_graph_corpus():
            batched = engine.answers_batch([(graph, query.formula) for graph in graphs])
            singles = [reference.answers(graph, query.formula) for graph in graphs]
            assert batched == singles, query.name

    def test_budget_trip_partway_caches_no_partial_set(self):
        engine = Engine()
        small = directed_cycle(4)
        dense = complete_graph(12)
        small_key = (small, EDGE, "universe", ("x", "y"))
        dense_key = (dense, DISTANCE_TWO, "universe", ("x", "y"))
        with pytest.raises(BudgetExceededError):
            engine.answers_batch(
                [(small, EDGE), (dense, DISTANCE_TWO)], budget=Budget(max_rows=100)
            )
        # The request before the trip completed and was cached whole; the
        # tripped one left nothing behind.
        assert engine.answer_cache.get(small_key) == naive_answers(small, EDGE)
        assert dense_key not in engine.answer_cache
        assert engine.answers(dense, DISTANCE_TWO) == naive_answers(dense, DISTANCE_TWO)

    def test_read_after_insert_is_patched(self):
        engine = Engine()
        graph = random_graph(10, 0.25, seed=10)
        engine.answers_batch([(graph, ONE_WAY)])
        missing = next(
            (a, b)
            for a in graph.universe
            for b in graph.universe
            if a != b and not graph.holds("E", (a, b))
        )
        graph.insert("E", missing)
        patched = engine.stats.answers_patched
        (rows,) = engine.answers_batch([(graph, ONE_WAY)])
        assert engine.stats.answers_patched == patched + 1
        cold = Structure(
            graph.signature,
            graph.universe,
            {name: set(tuples) for name, tuples in graph.relations.items()},
        )
        assert rows == Engine().answers(cold, ONE_WAY) == naive_answers(cold, ONE_WAY)


class TestEvaluateBatch:
    def test_matches_naive_evaluate(self):
        engine = Engine()
        graphs = _graphs()
        requests = [(g, f) for g in graphs for f in (MUTUAL, HAS_LOOP)]
        assert engine.evaluate_batch(requests) == [
            naive_evaluate(g, f) for g, f in requests
        ]

    def test_fast_path_groups_batch_through_census(self):
        engine = Engine()
        cycles = [directed_cycle(n) for n in (8, 9, 10, 8)]
        values = engine.evaluate_batch([(c, MUTUAL) for c in cycles])
        assert values == [False, False, False, False]
        assert engine.stats.fast_path_dispatches == 4

    def test_mixed_fast_and_slow_requests(self):
        engine = Engine()
        cycles = [directed_cycle(n) for n in (8, 9)]
        dense = random_graph(10, 0.8, seed=1)  # degree too high for fast path
        requests = [(cycles[0], MUTUAL), (dense, MUTUAL), (cycles[1], MUTUAL)]
        reference = Engine()
        assert engine.evaluate_batch(requests) == [
            reference.evaluate(s, f) for s, f in requests
        ]

    def test_free_variables_rejected(self):
        engine = Engine()
        with pytest.raises(EvaluationError):
            engine.evaluate_batch([(_graphs()[0], DISTANCE_TWO)])

    def test_evaluate_many_is_one_sentence_over_many_structures(self):
        engine = Engine()
        graphs = _graphs()
        assert engine.evaluate_many(graphs, MUTUAL) == [
            naive_evaluate(g, MUTUAL) for g in graphs
        ]


class TestSmallPlanShortCircuit:
    def test_small_plans_skip_semijoin_filter(self):
        engine = Engine()  # default small_plan_rows keeps small plans unfiltered
        graph = random_graph(12, 0.6, seed=3)
        engine.answers(graph, DISTANCE_TWO)
        assert engine.stats.execution.semijoin_filters == 0

    def test_threshold_zero_restores_filtering(self):
        filtered = Engine(small_plan_rows=0)
        graph = random_graph(12, 0.6, seed=3)
        filtered.answers(graph, DISTANCE_TWO)
        assert filtered.stats.execution.semijoin_filters > 0

    def test_answers_unaffected_by_short_circuit(self):
        graph = random_graph(12, 0.6, seed=3)
        assert Engine(small_plan_rows=0).answers(graph, DISTANCE_TWO) == Engine(
            small_plan_rows=10**9
        ).answers(graph, DISTANCE_TWO)
