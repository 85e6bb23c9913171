"""Tests for the columnar executor (repro.engine.columnar), the engine's
one plan executor.

The contract under test is *exact answer-set agreement* with the
independent reference, the naive evaluator, plus the codec's coding
invariants, the packed/tuple mode switch, the bounded pipeline memo,
and the observability and pickling behaviour the executor promises.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

from strategies import conformance_cases
import repro.engine.engine as engine_module
from repro import telemetry
from repro.engine import ColumnarExecutor, Engine
from repro.engine.columnar import kernels
from repro.engine.columnar.codec import PACK_MAX_ARITY, DomainCodec, codec_for
from repro.engine.columnar.compile import compile_plan
from repro.engine.columnar.executor import PIPELINE_CACHE_LIMIT
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.structures.builders import directed_cycle, random_graph
from repro.structures.structure import PIPELINE_MEMO, Structure

DISTANCE_TWO = parse("exists z (E(x, z) & E(z, y)) & ~E(x, y)")
HAS_LOOP = parse("exists x E(x, x)")
OUT_DOMINATED = parse("~(x = y) & forall z ((~E(x, z) | E(y, z)))")
#: Packed plans whose scans are projections, so neither reads the
#: codec's packed relation directly: both go through its scan memo.
HAS_OUT_EDGE = parse("exists y E(x, y)")
SOURCE = parse("exists y E(x, y) & ~(exists y E(y, x))")


def pipelines(structure: Structure):
    """The structure's compiled-pipeline memo."""
    return structure._cache[PIPELINE_MEMO]


def leaves(node):
    """The leaf steps of a compiled pipeline, left to right."""
    if not node.children:
        return [node]
    return [leaf for child in node.children for leaf in leaves(child)]


class TestColumnarEquivalence:
    """Speed is the executor's reason to exist; this is its license."""

    @settings(max_examples=40, deadline=None)
    @given(case=conformance_cases(max_size=5, formula_budget=5))
    def test_matches_naive_on_conformance_cases(self, case):
        """Columnar ≡ naive over the shared fuzz distribution — all six
        signatures, constants, equalities, negation, ternary relations
        (which exercise the tuple-of-int fallback mid-plan)."""
        reference = naive_answers(case.structure, case.formula)
        assert Engine().answers(case.structure, case.formula) == reference

    def test_named_zoo_shapes_agree(self):
        graph = random_graph(14, 0.4, seed=9)
        for formula in (DISTANCE_TWO, HAS_LOOP, OUT_DOMINATED):
            assert Engine().answers(graph, formula) == naive_answers(
                graph, formula
            )

    def test_constants_resolve_through_the_codec(self):
        signature = Signature({"E": 2}, constants={"c"})
        structure = Structure(
            signature, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]}, {"c": 1}
        )
        formula = parse("E(c, x) | x = c", constants=signature)
        assert Engine().answers(structure, formula) == naive_answers(
            structure, formula
        )


class TestDomainCodec:
    def test_round_trip_packed_and_tuple(self):
        structure = directed_cycle(7)
        codec = DomainCodec(structure)
        for arity in (1, 2, 3):
            row = tuple(structure.universe[i % 7] for i in range(arity))
            packed = codec.encode_row(row, packed=True)
            assert isinstance(packed, int)
            assert codec.decode_key(packed, arity) == row
            ids = codec.encode_row(row, packed=False)
            assert isinstance(ids, tuple)
            assert codec.decode_key(ids, arity) == row

    def test_packed_relation_equals_encoded_tuples(self):
        structure = random_graph(9, 0.4, seed=5)
        codec = codec_for(structure)
        expected = {codec.encode_row(row) for row in structure.tuples("E")}
        assert codec.packed_relation("E") == expected

    def test_columns_are_parallel_and_cached(self):
        structure = random_graph(8, 0.5, seed=2)
        codec = codec_for(structure)
        cols = codec.columns("E")
        assert len(cols) == 2
        decoded = {
            (codec.decode(a), codec.decode(b)) for a, b in zip(cols[0], cols[1])
        }
        assert decoded == set(structure.tuples("E"))
        assert codec.columns("E") is cols

    def test_can_pack_respects_arity_cap(self):
        structure = directed_cycle(5)
        codec = DomainCodec(structure)
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

    def test_kernel_code_cache_is_bounded(self):
        """Kernel sources inline the domain size, so one query on 100
        cycles of distinct sizes compiles about 300 of them; the code
        cache keeps the most recent CODE_CACHE_LIMIT, and a kernel it
        evicted compiles again."""
        engine = Engine()
        for n in range(3, 103):
            engine.answers(directed_cycle(n), DISTANCE_TWO)
        assert len(kernels._CODE_CACHE) == kernels.CODE_CACHE_LIMIT
        first, misses = directed_cycle(3), kernels._CODE_CACHE.misses
        assert Engine().answers(first, DISTANCE_TWO) == naive_answers(first, DISTANCE_TWO)
        assert kernels._CODE_CACHE.misses > misses

    def test_project_of_extend_compiles_to_one_node(self):
        """The union branches of ∀z (E(x, z) ∨ E(y, z)) are
        Project(Extend(Scan)) — the compiler must fuse each into a
        single strided Extend node."""
        graph = random_graph(10, 0.3, seed=1)
        engine = Engine()
        plan, _ = engine._plan_for(graph, parse("forall z (E(x, z) | E(y, z))"))
        compiled = compile_plan(plan, graph)
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

    def test_leaf_results_are_memoized(self, scan_builds):
        """Scans are memoized at the codec: a second execution of the
        pipeline builds no scan."""
        engine = Engine()
        graph = random_graph(9, 0.4, seed=7)
        first = engine.answers(graph, SOURCE)
        assert scan_builds
        scan_builds.clear()
        engine.invalidate(graph)
        assert engine.answers(graph, SOURCE) == first
        assert scan_builds == []

    def test_pipelines_share_one_set_per_scan_shape(self):
        """Two pipelines that scan the same shape of E read one set, the
        codec's, instead of a copy each that a dead pipeline would pin."""
        graph = random_graph(9, 0.4, seed=7)
        engine = Engine()
        scans = []
        for formula in (HAS_OUT_EDGE, SOURCE):
            plan, _ = engine._plan_for(graph, formula)
            ColumnarExecutor(graph).run(plan)
            root = pipelines(graph).get(id(plan)).root
            scans.append([leaf.fn() for leaf in leaves(root)])
        (alone,) = scans[0]
        assert alone is not codec_for(graph).packed_relation("E")
        assert any(rows is alone for rows in scans[1])


class TestModeSelection:
    def test_wide_plans_fall_back_to_tuple_keys(self):
        """Four joined atoms keep ≥ 4 attributes live mid-plan, pushing
        the plan over PACK_MAX_ARITY — the pipeline must compile in
        tuple-of-int mode and still agree with the oracle."""
        wide = parse("E(x, y) & E(y, z) & E(z, w) & E(w, x)")
        graph = random_graph(7, 0.5, seed=4)
        engine = Engine()
        plan, _ = engine._plan_for(graph, wide)
        compiled = compile_plan(plan, graph)
        assert not compiled.packed
        assert engine.answers(graph, wide) == naive_answers(graph, wide)

    def test_narrow_plans_pack(self):
        graph = random_graph(7, 0.5, seed=4)
        engine = Engine()
        plan, _ = engine._plan_for(graph, DISTANCE_TWO)
        assert compile_plan(plan, graph).packed

    @pytest.mark.parametrize("reverse", [False, True], ids=["as-given", "reversed"])
    @pytest.mark.parametrize(
        "structure, texts",
        [
            (
                lambda: Structure(
                    GRAPH,
                    range(5),
                    {"E": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 2)]},
                ),
                (
                    "~(exists v. (E(v, v)))",
                    "E(x, y) & E(y, z) & E(z, w) & ~(exists v. (E(v, v)))",
                ),
            ),
            (
                lambda: random_graph(6, 0.5, seed=3),
                (
                    "~E(x, y)",
                    "forall z ((~E(x, z)) | (E(y, z) & E(u, z) & ~E(v, z)))",
                ),
            ),
        ],
        ids=["nullary", "binary"],
    )
    def test_packed_and_tuple_plans_share_a_structure(self, structure, texts, reverse):
        """A packed plan and a tuple-of-int plan complement at the same
        arity on one structure; each must get its own key universe."""
        graph = structure()
        engine = Engine()
        formulas = [parse(text) for text in texts]
        plans = [engine._plan_for(graph, formula)[0] for formula in formulas]
        assert [compile_plan(plan, graph).packed for plan in plans] == [True, False]
        for formula in reversed(formulas) if reverse else formulas:
            assert engine.answers(graph, formula) == naive_answers(graph, formula)


class TestExecutorParity:
    def test_semijoin_prefilter_counts_like_the_tuple_executor(self, monkeypatch):
        graph = random_graph(12, 0.6, seed=3)
        unfiltered = Engine()
        unfiltered.answers(graph, DISTANCE_TWO)
        assert unfiltered.stats.execution.semijoin_filters == 0
        monkeypatch.setattr(engine_module, "SMALL_PLAN_ROWS", 0)
        filtered = Engine()
        filtered.answers(graph, DISTANCE_TWO)
        assert filtered.stats.execution.semijoin_filters > 0
        assert filtered.answers(graph, DISTANCE_TWO) == unfiltered.answers(
            graph, DISTANCE_TWO
        )

    def test_stats_and_rows_materialized(self):
        engine = Engine()
        engine.answers(random_graph(8, 0.3, seed=2), DISTANCE_TWO)
        snapshot = engine.stats.as_dict()
        assert snapshot["executions"] == 1
        assert snapshot["execution"]["rows_materialized"] > 0
        assert snapshot["execution"]["joins"] > 0

    def test_telemetry_counters_appear(self):
        telemetry.enable()
        try:
            engine = Engine()
            engine.answers(random_graph(10, 0.3, seed=1), DISTANCE_TWO)
            snap = telemetry.metrics_snapshot()
            assert snap["counters"]["executor.rows.AtomScan"] > 0
            assert snap["counters"]["columnar.pipeline.compiles"] >= 1
            assert any(
                name.startswith("executor.ops.") for name in snap["counters"]
            )
            assert "executor.ms.AtomScan" in snap["histograms"]
        finally:
            telemetry.disable()

    def test_pipeline_cache_reused_across_executions(self):
        engine = Engine()
        graph = random_graph(9, 0.4, seed=7)
        first = engine.answers(graph, DISTANCE_TWO)
        engine.invalidate(graph)  # drop the answer cache, keep the pipeline
        plan, _ = engine._plan_for(graph, DISTANCE_TWO)
        assert id(plan) in pipelines(graph)
        assert engine.answers(graph, DISTANCE_TWO) == first

    def test_pipeline_memo_is_bounded(self):
        """Every distinct formula compiles a pipeline that pins its plan;
        a long-lived structure keeps only the most recent
        PIPELINE_CACHE_LIMIT of them, like the engine's plan cache."""
        engine = Engine()
        graph = random_graph(40, 0.1, seed=0)
        for i in range(1000):
            engine.answers(graph, parse(f"E(x{i}, x{i})"))
        assert len(graph._cache) < 10, len(graph._cache)
        memo = pipelines(graph)
        assert len(memo) == PIPELINE_CACHE_LIMIT == engine.plan_cache.capacity
        latest, _ = engine._plan_for(graph, parse("E(x999, x999)"))
        assert id(latest) in memo
        assert graph.insert("E", (0, 0))  # the memo rides across updates
        assert pipelines(graph) is memo
        assert (0,) in engine.answers(graph, parse("E(x999, x999)"))

    def test_direct_executor_run(self):
        graph = random_graph(8, 0.4, seed=6)
        engine = Engine()
        plan, _ = engine._plan_for(graph, DISTANCE_TWO)
        relation = ColumnarExecutor(graph).run(plan)
        assert relation.attributes == plan.attributes
        assert relation.rows == naive_answers(graph, DISTANCE_TWO)


class TestPickling:
    def test_columnar_caches_do_not_ship(self):
        """Codec and pipeline memos live in Structure._cache, which
        __getstate__ drops — a copy rebuilds them on demand."""
        graph = random_graph(8, 0.4, seed=3)
        engine = Engine()
        engine.answers(graph, DISTANCE_TWO)
        assert any(
            isinstance(key, tuple) and key and str(key[0]).startswith("columnar")
            for key in graph._cache
        )
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone._cache == {}
        assert Engine().answers(clone, DISTANCE_TWO) == engine.answers(
            graph, DISTANCE_TWO
        )
