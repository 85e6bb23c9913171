"""Tests for the columnar executor tier (repro.engine.columnar).

The contract under test is *exact answer-set agreement* with the tuple
executor and the naive oracle — the columnar tier is a performance tier,
never a semantics tier — plus the codec's coding invariants, the
packed/tuple mode switch, the dispatch policy, and the observability and
pickling parity the executor promises.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings

from strategies import conformance_cases
from repro import telemetry
from repro.engine import ColumnarExecutor, Engine
from repro.engine.columnar.codec import PACK_MAX_ARITY, DomainCodec, codec_for
from repro.engine.columnar.compile import compile_plan
from repro.errors import EvaluationError
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.logic.signature import Signature
from repro.structures.builders import directed_cycle, random_graph
from repro.structures.structure import Structure

DISTANCE_TWO = parse("exists z (E(x, z) & E(z, y)) & ~E(x, y)")
HAS_LOOP = parse("exists x E(x, x)")
OUT_DOMINATED = parse("~(x = y) & forall z ((~E(x, z) | E(y, z)))")


def columnar_engine(**kwargs) -> Engine:
    return Engine(executor="columnar", **kwargs)


class TestColumnarEquivalence:
    """The tier's reason to exist is speed; its license to exist is this."""

    @settings(max_examples=40, deadline=None)
    @given(case=conformance_cases(max_size=5, formula_budget=5))
    def test_matches_naive_on_conformance_cases(self, case):
        """Columnar ≡ naive over the shared fuzz distribution — all six
        signatures, constants, equalities, negation, ternary relations
        (which exercise the tuple-of-int fallback mid-plan)."""
        reference = naive_answers(case.structure, case.formula)
        assert columnar_engine().answers(case.structure, case.formula) == reference

    @settings(max_examples=25, deadline=None)
    @given(case=conformance_cases(max_size=5, formula_budget=5))
    def test_matches_tuple_executor_under_active_domain(self, case):
        tuple_engine = Engine(domain="active", executor="tuple")
        active = Engine(domain="active", executor="columnar")
        assert active.answers(case.structure, case.formula) == tuple_engine.answers(
            case.structure, case.formula
        )

    def test_named_zoo_shapes_agree(self):
        graph = random_graph(14, 0.4, seed=9)
        for formula in (DISTANCE_TWO, HAS_LOOP, OUT_DOMINATED):
            assert columnar_engine().answers(graph, formula) == naive_answers(
                graph, formula
            )

    def test_empty_active_domain(self):
        """All-empty relations under active semantics: the domain pads to
        one universe element and both executors agree."""
        empty = Structure(Signature({"E": 2}), [0, 1, 2], {"E": []})
        for formula in (DISTANCE_TWO, HAS_LOOP, parse("~E(x, y)")):
            assert Engine(domain="active", executor="columnar").answers(
                empty, formula
            ) == Engine(domain="active", executor="tuple").answers(empty, formula)

    def test_constants_resolve_through_the_codec(self):
        signature = Signature({"E": 2}, constants={"c"})
        structure = Structure(
            signature, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]}, {"c": 1}
        )
        formula = parse("E(c, x) | x = c", constants=signature)
        assert columnar_engine().answers(structure, formula) == naive_answers(
            structure, formula
        )

    def test_batch_api_rides_the_columnar_tier(self):
        engine = columnar_engine()
        graphs = [random_graph(n, 0.3, seed=n) for n in (6, 8, 10)]
        batched = engine.answers_batch([(g, DISTANCE_TWO) for g in graphs])
        assert batched == [naive_answers(g, DISTANCE_TWO) for g in graphs]


class TestDomainCodec:
    def test_round_trip_packed_and_tuple(self):
        structure = directed_cycle(7)
        codec = DomainCodec(structure, structure.universe)
        for arity in (1, 2, 3):
            row = tuple(structure.universe[i % 7] for i in range(arity))
            packed = codec.encode_row(row, packed=True)
            assert isinstance(packed, int)
            assert codec.decode_key(packed, arity) == row
            ids = codec.encode_row(row, packed=False)
            assert isinstance(ids, tuple)
            assert codec.decode_key(ids, arity) == row

    def test_encode_foreign_element_is_none(self):
        structure = directed_cycle(4)
        codec = DomainCodec(structure, structure.universe)
        assert codec.encode("not-an-element") is None
        assert codec.encode_row((0, "not-an-element")) is None

    def test_packed_relation_equals_encoded_tuples(self):
        structure = random_graph(9, 0.4, seed=5)
        codec = codec_for(structure, structure.universe)
        expected = {codec.encode_row(row) for row in structure.tuples("E")}
        assert codec.packed_relation("E") == expected

    def test_columns_are_parallel_and_cached(self):
        structure = random_graph(8, 0.5, seed=2)
        codec = codec_for(structure, structure.universe)
        cols = codec.columns("E")
        assert len(cols) == 2
        decoded = {
            (codec.decode(a), codec.decode(b)) for a, b in zip(cols[0], cols[1])
        }
        assert decoded == set(structure.tuples("E"))
        assert codec.columns("E") is cols

    def test_codec_cached_per_domain(self):
        # Vertex 3 is isolated, so the active domain is a proper subset.
        structure = Structure(Signature({"E": 2}), [0, 1, 2, 3], {"E": [(0, 1), (1, 2)]})
        assert codec_for(structure, structure.universe) is codec_for(
            structure, structure.universe
        )
        active = tuple(sorted(structure.active_domain(), key=repr))
        assert active != structure.universe
        assert codec_for(structure, active) is not codec_for(
            structure, structure.universe
        )

    def test_can_pack_respects_arity_cap(self):
        structure = directed_cycle(5)
        codec = DomainCodec(structure, structure.universe)
        assert codec.can_pack(PACK_MAX_ARITY)
        assert not codec.can_pack(PACK_MAX_ARITY + 1)


class TestKernels:
    def test_extend_insert_matches_brute_force(self):
        """The strided-range π∘Extend kernel equals insert-and-enumerate
        for every insertion point of a block of fresh columns."""
        from repro.engine.columnar.kernels import build_extend_insert

        base, child_arity, new_count = 5, 2, 1
        child_keys = {0, 7, 13, 24}
        for insert_at in range(child_arity + 1):
            kernel = build_extend_insert(child_arity, new_count, insert_at, base)
            expected = set()
            for key in child_keys:
                digits = [(key // base) % base, key % base]
                for fresh in range(base**new_count):
                    row = digits[:insert_at] + [fresh] + digits[insert_at:]
                    packed = 0
                    for digit in row:
                        packed = packed * base + digit
                    expected.add(packed)
            assert kernel(child_keys) == expected

    def test_project_of_extend_compiles_to_one_node(self):
        """OUT_DOMINATED's union branches are Project(Extend(·)) — the
        compiler must fuse each into a single strided Extend node."""
        graph = random_graph(10, 0.3, seed=1)
        engine = columnar_engine()
        plan, _ = engine._plan_for(graph, OUT_DOMINATED)
        compiled = compile_plan(plan, graph, graph.universe)
        extends, unfused = [], []

        def walk(node):
            if node.kind == "Extend":
                extends.append(node)
            if node.kind == "Project" and any(
                child.kind == "Extend" for child in node.children
            ):
                unfused.append(node)
            for child in node.children:
                walk(child)

        walk(compiled.root)
        assert extends and not unfused

    def test_leaf_results_are_memoized(self):
        engine = columnar_engine()
        graph = random_graph(9, 0.4, seed=7)
        first = engine.answers(graph, DISTANCE_TWO)
        plan, _ = engine._plan_for(graph, DISTANCE_TWO)
        root = graph._cache[("columnar-pipeline", id(plan), graph.universe)].root
        leaves = []

        def walk(node):
            if node.children:
                for child in node.children:
                    walk(child)
            else:
                leaves.append(node)

        walk(root)
        assert leaves and all(leaf.cache is not None for leaf in leaves)
        engine.invalidate(graph)
        assert engine.answers(graph, DISTANCE_TWO) == first


class TestModeSelection:
    def test_wide_plans_fall_back_to_tuple_keys(self):
        """Four joined atoms keep ≥ 4 attributes live mid-plan, pushing
        the plan over PACK_MAX_ARITY — the pipeline must compile in
        tuple-of-int mode and still agree with the oracle."""
        wide = parse("E(x, y) & E(y, z) & E(z, w) & E(w, x)")
        graph = random_graph(7, 0.5, seed=4)
        engine = columnar_engine()
        plan, _ = engine._plan_for(graph, wide)
        compiled = compile_plan(plan, graph, graph.universe)
        assert not compiled.packed
        assert engine.answers(graph, wide) == naive_answers(graph, wide)

    def test_narrow_plans_pack(self):
        graph = random_graph(7, 0.5, seed=4)
        engine = columnar_engine()
        plan, _ = engine._plan_for(graph, DISTANCE_TWO)
        assert compile_plan(plan, graph, graph.universe).packed


class TestDispatchPolicy:
    def test_forced_modes(self):
        graph = random_graph(8, 0.3, seed=1)
        plan, _ = Engine()._plan_for(graph, DISTANCE_TWO)
        assert Engine(executor="columnar")._use_columnar(plan)
        assert not Engine(executor="tuple")._use_columnar(plan)

    def test_auto_routes_the_extremes_to_columnar(self):
        engine = Engine(executor="auto")
        graph = random_graph(10, 0.3, seed=1)
        tiny_plan, _ = engine._plan_for(graph, HAS_LOOP)
        assert tiny_plan.total_estimated_rows() <= engine.tiny_plan_rows
        assert engine._use_columnar(tiny_plan)
        big_plan, _ = engine._plan_for(graph, OUT_DOMINATED)
        assert big_plan.total_estimated_rows() >= engine.columnar_min_rows
        assert engine._use_columnar(big_plan)

    def test_auto_keeps_the_middle_band_on_tuple(self):
        engine = Engine(executor="auto", tiny_plan_rows=0, columnar_min_rows=10**9)
        graph = random_graph(10, 0.3, seed=1)
        plan, _ = engine._plan_for(graph, DISTANCE_TWO)
        assert not engine._use_columnar(plan)

    def test_env_variable_selects_the_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "columnar")
        assert Engine().executor_mode == "columnar"
        monkeypatch.setenv("REPRO_EXECUTOR", "tuple")
        assert Engine().executor_mode == "tuple"
        # An explicit parameter wins over the environment.
        assert Engine(executor="auto").executor_mode == "auto"

    def test_invalid_mode_rejected(self):
        try:
            Engine(executor="vectorized")
        except EvaluationError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected EvaluationError")


class TestExecutorParity:
    def test_semijoin_prefilter_counts_like_the_tuple_executor(self):
        graph = random_graph(12, 0.6, seed=3)
        unfiltered = columnar_engine()
        unfiltered.answers(graph, DISTANCE_TWO)
        assert unfiltered.stats.execution.semijoin_filters == 0
        filtered = columnar_engine(small_plan_rows=0)
        filtered.answers(graph, DISTANCE_TWO)
        assert filtered.stats.execution.semijoin_filters > 0
        assert filtered.answers(graph, DISTANCE_TWO) == unfiltered.answers(
            graph, DISTANCE_TWO
        )

    def test_stats_and_rows_materialized(self):
        engine = columnar_engine()
        engine.answers(random_graph(8, 0.3, seed=2), DISTANCE_TWO)
        snapshot = engine.stats.as_dict()
        assert snapshot["executions"] == 1
        assert snapshot["execution"]["rows_materialized"] > 0
        assert snapshot["execution"]["joins"] > 0

    def test_telemetry_counters_appear(self):
        telemetry.enable()
        try:
            engine = columnar_engine()
            engine.answers(random_graph(10, 0.3, seed=1), DISTANCE_TWO)
            snap = telemetry.metrics_snapshot()
            assert snap["counters"]["executor.rows.AtomScan"] > 0
            assert snap["counters"]["columnar.pipeline.compiles"] >= 1
            assert any(
                name.startswith("columnar.kernel.") for name in snap["counters"]
            )
            assert "executor.ms.AtomScan" in snap["histograms"]
        finally:
            telemetry.disable()

    def test_pipeline_cache_reused_across_executions(self):
        engine = columnar_engine()
        graph = random_graph(9, 0.4, seed=7)
        first = engine.answers(graph, DISTANCE_TWO)
        engine.invalidate(graph)  # drop the answer cache, keep the pipeline
        plan, _ = engine._plan_for(graph, DISTANCE_TWO)
        key = ("columnar-pipeline", id(plan), graph.universe)
        assert key in graph._cache
        assert engine.answers(graph, DISTANCE_TWO) == first

    def test_direct_executor_run(self):
        graph = random_graph(8, 0.4, seed=6)
        engine = Engine()
        plan, _ = engine._plan_for(graph, DISTANCE_TWO)
        relation = ColumnarExecutor(graph, graph.universe).run(plan)
        assert relation.attributes == plan.attributes
        assert relation.rows == naive_answers(graph, DISTANCE_TWO)


class TestPickling:
    def test_columnar_caches_do_not_ship(self):
        """Codec and pipeline memos live in Structure._cache, which
        __getstate__ drops — a copy rebuilds them on demand."""
        graph = random_graph(8, 0.4, seed=3)
        engine = columnar_engine()
        engine.answers(graph, DISTANCE_TWO)
        assert any(
            isinstance(key, tuple) and key and str(key[0]).startswith("columnar")
            for key in graph._cache
        )
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone._cache == {}
        assert columnar_engine().answers(clone, DISTANCE_TWO) == engine.answers(
            graph, DISTANCE_TWO
        )
