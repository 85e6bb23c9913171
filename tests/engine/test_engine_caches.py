"""Unit tests for the engine's caches and the bounded-degree dispatch."""

import pytest

import repro.engine.engine as engine_module
from repro.engine import Engine, LRUCache
from repro.errors import BudgetExceededError
from repro.eval.evaluator import answers as naive_answers
from repro.eval.evaluator import evaluate
from repro.logic.parser import parse
from repro.logic.signature import GRAPH
from repro.resilience import Budget
from repro.structures.builders import (
    complete_graph,
    directed_cycle,
    grid_graph,
    random_graph,
    undirected_cycle,
)
from repro.structures.structure import GAIFMAN_MEMO, Structure

TRIANGLE_FREE = parse("~(exists x exists y exists z (E(x, y) & E(y, z) & E(z, x)))")
MUTUAL = parse("exists x exists y (E(x, y) & E(y, x))")
DISTANCE_TWO = parse("exists z (E(x, z) & E(z, y)) & ~E(x, y)")
EDGE = parse("E(x, y)")
HAS_EDGE = parse("exists y E(x, y)")


class TestLRUCache:
    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_counters(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_evict_where(self):
        cache = LRUCache(8)
        for i in range(5):
            cache.put(("s", i), i)
        assert cache.evict_where(lambda key: key[1] % 2 == 0) == 3
        assert len(cache) == 2

    def test_capacity_pressure_counts_evictions(self):
        cache = LRUCache(2)
        for i in range(5):
            cache.put(i, i)
        assert cache.evictions == 3
        assert len(cache) == 2

    def test_evict_where_and_clear_count_evictions(self):
        cache = LRUCache(8)
        for i in range(6):
            cache.put(i, i)
        cache.evict_where(lambda key: key < 2)
        assert cache.evictions == 2
        cache.clear()
        assert cache.evictions == 6
        assert len(cache) == 0

    def test_overwrite_is_not_an_eviction(self):
        cache = LRUCache(2)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.evictions == 0
        assert cache.get("k") == 2

    def test_snapshot_reports_counters_and_hit_rate(self):
        cache = LRUCache(2, name="demo")
        cache.put("a", 1)
        cache.get("a")
        cache.get("absent")
        cache.put("b", 2)
        cache.put("c", 3)  # evicts the LRU entry
        snap = cache.snapshot()
        assert snap["name"] == "demo"
        assert snap["capacity"] == 2 and snap["size"] == 2
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["evictions"] == 1
        assert snap["hit_rate"] == 0.5
        assert "evictions=1" in repr(cache)


class TestPlanCache:
    def test_same_structure_and_formula_hits_plan_cache(self):
        engine = Engine()
        structure = random_graph(5, 0.5, seed=1)
        formula = parse("exists y E(x, y)")
        engine.answers(structure, formula)
        built = engine.stats.plans_built
        engine.invalidate(structure)  # force re-execution, not re-planning
        engine.answers(structure, formula)
        assert engine.stats.plans_built == built
        assert engine.plan_cache.hits >= 1

    def test_same_stats_profile_shares_one_plan(self):
        engine = Engine()
        formula = parse("E(x, y) & E(y, z)")
        left = random_graph(6, 0.5, seed=2)
        right = left.relabel(lambda element: element + 100)
        engine.answers(left, formula)
        engine.answers(right, formula)
        # Identical cardinality profiles → one plan, two answer entries.
        assert engine.stats.plans_built == 1
        assert len(engine.answer_cache) == 2

    def test_structures_differing_only_in_active_domain_share_one_plan(self):
        """The planner estimates over the universe, so structures that
        differ only in their active domain (node 3 isolated in one, no
        node isolated in the other) share one plan: same universe size,
        same cardinalities."""
        engine = Engine()
        isolated = Structure(GRAPH, range(4), {"E": [(0, 1), (1, 2)]})
        covering = Structure(GRAPH, range(4), {"E": [(0, 1), (2, 3)]})
        for structure in (isolated, covering):
            assert engine.answers(structure, DISTANCE_TWO) == naive_answers(
                structure, DISTANCE_TWO
            )
        assert engine.stats.plans_built == 1
        assert engine.plan_cache.hits == 1

    def test_different_cardinalities_replan(self):
        engine = Engine()
        formula = parse("E(x, y) & E(y, z)")
        engine.answers(random_graph(6, 0.2, seed=3), formula)
        engine.answers(random_graph(6, 0.9, seed=4), formula)
        assert engine.stats.plans_built == 2


class TestAnswerCache:
    def test_answer_cache_hit_skips_execution(self):
        engine = Engine()
        structure = random_graph(5, 0.4, seed=5)
        formula = parse("E(x, y) & ~E(y, x)")
        first = engine.answers(structure, formula)
        executions = engine.stats.executions
        second = engine.answers(structure, formula)
        assert second == first
        assert engine.stats.executions == executions
        assert engine.answer_cache.hits >= 1

    def test_invalidate_drops_only_that_structure(self):
        engine = Engine()
        formula = parse("exists y E(x, y)")
        one = random_graph(4, 0.5, seed=6)
        two = random_graph(5, 0.5, seed=7)
        engine.answers(one, formula)
        engine.answers(two, formula)
        assert engine.invalidate(one) == 1
        assert len(engine.answer_cache) == 1
        engine.answers(two, formula)
        assert engine.answer_cache.hits >= 1

    def test_budget_trip_caches_nothing_but_earlier_reads_stay_cached(self):
        engine = Engine()
        small, dense = directed_cycle(4), complete_graph(12)
        token = Budget(max_rows=100).start()
        engine.answers(small, EDGE, budget=token)
        with pytest.raises(BudgetExceededError):
            engine.answers(dense, DISTANCE_TWO, budget=token)
        # The read before the trip completed and was cached whole, at the
        # structure's epoch; the tripped one left nothing behind.
        small_key = (small.uid, EDGE, ("x", "y"))
        dense_key = (dense.uid, DISTANCE_TWO, ("x", "y"))
        record = engine.answer_cache.get(small_key)
        assert (record.epoch, record.rows) == (small.epoch, naive_answers(small, EDGE))
        assert dense_key not in engine.answer_cache
        assert engine.answers(dense, DISTANCE_TWO) == naive_answers(dense, DISTANCE_TWO)


class TestBoundedDegreeDispatch:
    def test_low_degree_sentence_dispatches(self):
        engine = Engine()
        dispatch, reason = engine.fast_path_decision(undirected_cycle(10), MUTUAL)
        assert dispatch, reason

    def test_high_degree_structure_does_not(self):
        engine = Engine()
        dispatch, reason = engine.fast_path_decision(complete_graph(10), MUTUAL)
        assert not dispatch
        assert "degree" in reason

    def test_deep_sentence_does_not(self):
        deep = parse(
            "exists x exists y exists z exists u (E(x,y) & E(y,z) & E(z,u) & E(u,x))"
        )
        engine = Engine()
        dispatch, reason = engine.fast_path_decision(undirected_cycle(10), deep)
        assert not dispatch
        assert "ball bound" in reason

    def test_open_formula_does_not(self):
        engine = Engine()
        dispatch, reason = engine.fast_path_decision(
            undirected_cycle(10), parse("exists y E(x, y)")
        )
        assert not dispatch
        assert reason == "not a sentence"

    def test_dispatch_agrees_with_naive_across_family(self):
        engine = Engine()
        for n in range(3, 10):
            cycle = undirected_cycle(n)
            assert engine.evaluate(cycle, MUTUAL) == evaluate(cycle, MUTUAL)
            assert engine.evaluate(cycle, TRIANGLE_FREE) == evaluate(
                cycle, TRIANGLE_FREE
            )
        assert engine.stats.fast_path_dispatches > 0

    def test_each_dispatched_evaluate_counts_once(self):
        engine = Engine()
        dense = random_graph(10, 0.8, seed=1)  # degree too high for the fast path
        structures = [directed_cycle(8), dense, directed_cycle(9), directed_cycle(8)]
        values = [engine.evaluate(structure, MUTUAL) for structure in structures]
        assert values == [evaluate(structure, MUTUAL) for structure in structures]
        assert engine.stats.fast_path_dispatches == 3

    def test_threshold_enables_cross_size_table_reuse(self):
        # Theorem 3.10: with a census threshold, all large directed
        # cycles share one table entry, so later sizes skip evaluation.
        from repro.structures.builders import directed_cycle

        engine = Engine(fast_path_threshold=4)
        for n in (12, 13, 14, 15, 16):
            assert not engine.evaluate(directed_cycle(n), MUTUAL)
        evaluator = engine._bounded_degree.get(MUTUAL)
        assert evaluator is not None
        assert evaluator.stats.hits >= 3

    def test_warm_dispatch_reads_the_memoized_degree(self, monkeypatch):
        # A census-memo hit plus a table hit must not rescan the Gaifman
        # adjacency for the degree check.
        import repro.structures.gaifman as gaifman_module

        engine = Engine()
        cycle = undirected_cycle(40)
        assert engine.evaluate(cycle, MUTUAL)
        calls = []
        adjacency = gaifman_module.gaifman_adjacency

        def counting(structure):
            calls.append(structure)
            return adjacency(structure)

        monkeypatch.setattr(gaifman_module, "gaifman_adjacency", counting)
        for _ in range(10):
            assert engine.evaluate(cycle, MUTUAL)
        assert engine.stats.fast_path_dispatches == 11
        assert calls == []

    def test_updates_drop_the_degree_memo(self):
        engine = Engine()
        cycle = undirected_cycle(10)
        assert cycle.max_degree() == 2
        assert engine.fast_path_decision(cycle, MUTUAL)[0]
        for target in (3, 5, 7):
            cycle.insert("E", (0, target))
        assert cycle.max_degree() == 5
        dispatch, reason = engine.fast_path_decision(cycle, MUTUAL)
        assert not dispatch
        assert "exceeds bound" in reason

    def test_planning_a_query_builds_no_gaifman_graph(self):
        # Only the sentence gate reads the Gaifman degree, so a cold read
        # of a query with free variables leaves the adjacency unbuilt.
        grid = grid_graph(8, 8)
        rows = Engine().answers(grid, HAS_EDGE)
        assert GAIFMAN_MEMO not in grid._cache
        assert rows == naive_answers(grid, HAS_EDGE)

    def test_fast_path_miss_uses_algebra_not_naive(self):
        engine = Engine()
        cycle = undirected_cycle(9)
        assert engine.evaluate(cycle, MUTUAL) == evaluate(cycle, MUTUAL)
        # The table miss must have routed through the engine's own
        # answers pipeline (visible as a cached sentence answer).
        assert engine.answer_cache.misses >= 1


class TestSmallPlanShortCircuit:
    def test_small_plans_skip_semijoin_filter(self):
        engine = Engine()  # SMALL_PLAN_ROWS keeps small plans unfiltered
        graph = random_graph(12, 0.6, seed=3)
        engine.answers(graph, DISTANCE_TWO)
        assert engine.stats.execution.semijoin_filters == 0

    def test_threshold_zero_restores_filtering(self, monkeypatch):
        monkeypatch.setattr(engine_module, "SMALL_PLAN_ROWS", 0)
        filtered = Engine()
        graph = random_graph(12, 0.6, seed=3)
        filtered.answers(graph, DISTANCE_TWO)
        assert filtered.stats.execution.semijoin_filters > 0

    def test_answers_unaffected_by_short_circuit(self, monkeypatch):
        graph = random_graph(12, 0.6, seed=3)
        monkeypatch.setattr(engine_module, "SMALL_PLAN_ROWS", 0)
        filtered = Engine().answers(graph, DISTANCE_TWO)
        monkeypatch.setattr(engine_module, "SMALL_PLAN_ROWS", 10**9)
        assert filtered == Engine().answers(graph, DISTANCE_TWO)
