"""Tests for the linear-time bounded-degree evaluator (Thm 3.10/3.11)."""

import pytest

from repro.errors import LocalityError
from repro.eval.evaluator import evaluate
from repro.locality.bounded_degree import BoundedDegreeEvaluator, census_key
from repro.locality.hanf import hanf_locality_radius
from repro.logic.parser import parse
from repro.logic.analysis import quantifier_rank
from repro.structures.builders import (
    directed_cycle,
    disjoint_cycles,
    grid_graph,
    undirected_chain,
    undirected_cycle,
)


class TestConstruction:
    def test_default_radius_is_hanf_bound(self):
        sentence = parse("exists x exists y E(x, y)")
        evaluator = BoundedDegreeEvaluator(sentence, degree_bound=2)
        assert evaluator.radius == hanf_locality_radius(quantifier_rank(sentence))

    def test_open_formula_rejected(self):
        with pytest.raises(LocalityError):
            BoundedDegreeEvaluator(parse("E(x, y)"), degree_bound=2)

    def test_invalid_parameters_rejected(self):
        sentence = parse("exists x E(x, x)")
        with pytest.raises(LocalityError):
            BoundedDegreeEvaluator(sentence, degree_bound=-1)
        with pytest.raises(LocalityError):
            BoundedDegreeEvaluator(sentence, degree_bound=2, radius=-1)
        with pytest.raises(LocalityError):
            BoundedDegreeEvaluator(sentence, degree_bound=2, threshold=0)


class TestCensusKey:
    def test_exact_key_preserves_counts(self):
        from collections import Counter

        census = Counter({0: 5, 1: 2})
        assert census_key(census, None) == ((0, 5), (1, 2))

    def test_threshold_truncates(self):
        from collections import Counter

        census = Counter({0: 5, 1: 2})
        assert census_key(census, 3) == ((0, 3), (1, 2))


class TestEvaluation:
    def test_agrees_with_naive_evaluator(self):
        sentence = parse("exists x exists y (E(x, y) & E(y, x))")
        evaluator = BoundedDegreeEvaluator(sentence, degree_bound=2)
        for structure in [undirected_cycle(10), undirected_chain(7), disjoint_cycles([5, 6])]:
            assert evaluator.evaluate(structure) == evaluate(structure, sentence)

    def test_degree_bound_enforced(self):
        sentence = parse("exists x E(x, x)")
        evaluator = BoundedDegreeEvaluator(sentence, degree_bound=2)
        with pytest.raises(LocalityError):
            evaluator.evaluate(grid_graph(3, 3))  # degree up to 4

    def test_evaluate_many_equals_baseline_evaluations(self):
        sentence = parse("exists x exists y (E(x, y) & E(y, x))")
        cycles = [directed_cycle(n) for n in (6, 7, 8, 9, 6)]
        fast = BoundedDegreeEvaluator(sentence, degree_bound=2)
        baseline = BoundedDegreeEvaluator(
            sentence, degree_bound=2, census_mode="baseline"
        )
        assert fast.evaluate_many(cycles) == [
            baseline.evaluate(cycle) for cycle in cycles
        ]

    def test_evaluate_many_checks_every_degree_first(self):
        sentence = parse("exists x E(x, x)")
        evaluator = BoundedDegreeEvaluator(sentence, degree_bound=2)
        with pytest.raises(LocalityError):
            evaluator.evaluate_many([undirected_cycle(5), grid_graph(3, 3)])
        assert evaluator.stats.misses == 0

    def test_cache_hit_on_hanf_equivalent_structure(self):
        # 2×C_m and C_2m share an exact census once m > 2r + 1; the
        # second evaluation must be a pure census lookup.
        sentence = parse("exists x exists y (E(x, y) & E(y, x))")
        evaluator = BoundedDegreeEvaluator(sentence, degree_bound=2)
        r = evaluator.radius
        m = 2 * r + 2
        first = evaluator.evaluate(disjoint_cycles([m, m]))
        second = evaluator.evaluate(undirected_cycle(2 * m))
        assert first == second
        assert evaluator.stats.hits == 1
        assert evaluator.stats.misses == 1

    def test_cache_correctness_on_hanf_pairs(self):
        # Even when the cache answers, the value must equal the naive one
        # (Hanf's theorem at the default radius guarantees it).
        for text in [
            "exists x exists y exists z (E(x, y) & E(y, z) & E(z, x))",
            "forall x exists y E(x, y)",
        ]:
            sentence = parse(text)
            evaluator = BoundedDegreeEvaluator(sentence, degree_bound=2, radius=4)
            m = 10
            left, right = disjoint_cycles([m, m]), undirected_cycle(2 * m)
            assert evaluator.evaluate(left) == evaluate(left, sentence)
            assert evaluator.evaluate(right) == evaluate(right, sentence)

    def test_threshold_enables_cross_size_reuse(self):
        sentence = parse("exists x exists y (E(x, y) & E(y, x))")
        evaluator = BoundedDegreeEvaluator(sentence, degree_bound=2, radius=2, threshold=3)
        evaluator.evaluate(undirected_cycle(12))
        evaluator.evaluate(undirected_cycle(16))  # different size, same truncated census
        assert evaluator.stats.hits == 1

    def test_threshold_reuse_is_correct_on_corpus(self):
        # Empirical validation of Theorem 3.10 for rank-2 sentences at
        # (r, m) = (4, 2): cached answers equal direct evaluation.
        from repro.queries.zoo import fo_boolean_corpus

        structures = [
            undirected_cycle(12),
            undirected_cycle(16),
            disjoint_cycles([12, 12]),
            undirected_chain(14),
            undirected_chain(20),
        ]
        for query in fo_boolean_corpus():
            evaluator = BoundedDegreeEvaluator(
                query.formula, degree_bound=2, radius=4, threshold=4
            )
            for structure in structures:
                assert evaluator.evaluate(structure) == evaluate(structure, query.formula), (
                    query,
                    structure,
                )

    def test_callable_interface(self):
        sentence = parse("exists x E(x, x)")
        evaluator = BoundedDegreeEvaluator(sentence, degree_bound=2)
        assert evaluator(undirected_cycle(6)) is False
