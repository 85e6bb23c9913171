"""Joins and antijoins that are semijoins compile to membership and
intersection tests (repro.engine.columnar.compile and kernels).

Three shapes: an antijoin or pre-filter whose right side has only shared
attributes probes that side in place; a join one of whose sides has only
shared attributes keeps the other side's matching rows; and a semijoin
over a projected join, ``A ⋉ π_S(B ⋈ C)``, meets B's and C's indexed
sets per row of A without building the join. Each must agree with the
naive evaluator (or, for plans the planner never emits, with the tuple
reference executor), in packed and in tuple-of-int keys.
"""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ColumnarExecutor, Engine
from repro.engine.columnar import kernels
from repro.engine.columnar.compile import compile_plan
from repro.engine.executor import Executor
from repro.engine.plan import AntiJoin, AtomScan, Join, Project, join_attributes
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.structures.structure import Structure

SIGNATURE = Signature({"E": 2, "R": 4, "P": 1})

#: formula → the pipeline step kind it must compile to somewhere.
SHAPES = {
    # in-place antijoins: swapped key order, equal order (L - R), tuple keys
    "E(x, y) & ~E(y, x)": "AntiJoin",
    "exists z (E(x, z) & E(z, y)) & ~E(x, y)": "AntiJoin",
    "R(x, y, u, v) & ~R(v, u, y, x)": "AntiJoin",
    "R(x, y, u, v) & ~R(x, y, u, v)": "AntiJoin",
    # joins that are semijoins: one side kept, either side, equal order (L & R)
    "E(x, y) & E(y, x)": "SemiJoin",
    "exists y (E(x, y) & E(y, x))": "SemiJoin",
    "E(x, y) & P(x)": "SemiJoin",
    "E(x, y) & (E(x, y) | P(x))": "SemiJoin",
    "R(x, y, u, v) & E(u, v)": "SemiJoin",
    "R(x, y, u, v) & R(v, u, y, x)": "SemiJoin",
    # semijoins over a projected join
    "exists y exists z (E(x, y) & E(y, z) & E(z, x))": "SemiJoinMeet",
    "E(x, y) & exists z (P(z) & E(z, y))": "SemiJoinMeet",
    "R(x, y, u, v) & exists z (R(x, y, z, z) & E(z, u))": "SemiJoinMeet",
    "exists y exists z (E(x, y) & E(y, z) & E(z, x) & E(x, z))": "SemiJoinMeet",
}


@st.composite
def structures(draw) -> Structure:
    """A random structure over E/2, R/4 and P/1 on 2–6 elements."""
    size = draw(st.integers(2, 6))
    element = st.integers(0, size - 1)
    return Structure(
        SIGNATURE,
        range(size),
        {
            "E": draw(st.sets(st.tuples(element, element), max_size=20)),
            "R": draw(st.sets(st.tuples(element, element, element, element), max_size=60)),
            "P": draw(st.sets(st.tuples(element), max_size=size)),
        },
    )


def kinds(node) -> set[str]:
    """Every step kind of a compiled pipeline."""
    return {node.kind}.union(*(kinds(child) for child in node.children))


def scan(relation: str, *names: str) -> AtomScan:
    return AtomScan(
        attributes=names,
        estimated_rows=1.0,
        relation=relation,
        projection=tuple(enumerate(names)),
    )


def projected_join(left, right, attributes: tuple[str, ...]) -> Project:
    join = Join(
        attributes=join_attributes(left.attributes, right.attributes),
        estimated_rows=1.0,
        left=left,
        right=right,
    )
    return Project(attributes=attributes, estimated_rows=1.0, child=join)


class TestAgainstTheNaiveEvaluator:
    @pytest.mark.parametrize("text", list(SHAPES))
    def test_each_shape_compiles_to_its_step(self, text):
        structure = Structure(SIGNATURE, range(3), {"E": [(0, 1)], "R": [], "P": []})
        plan, _ = Engine()._plan_for(structure, parse(text))
        assert SHAPES[text] in kinds(compile_plan(plan, structure).root)

    @settings(max_examples=60, deadline=None)
    @given(structure=structures())
    def test_every_shape_matches_naive(self, structure):
        engine = Engine()
        for text in SHAPES:
            formula = parse(text)
            assert engine.answers(structure, formula) == naive_answers(
                structure, formula
            ), text

    @settings(max_examples=40, deadline=None)
    @given(structure=structures(), keep=st.booleans())
    def test_antijoin_over_a_projected_join_matches_the_tuple_executor(
        self, structure, keep
    ):
        """The ▷ form of the meet, and its ⋉ form, on hand-built plans:
        the planner negates only atoms, so it never emits the ▷ form."""
        cases = [
            (scan("E", "y", "x"), scan("E", "x", "z"), scan("E", "z", "y"), ("x", "y")),
            (scan("E", "x", "y"), scan("P", "z"), scan("E", "z", "y"), ("y",)),
            (
                scan("E", "y", "x"),
                scan("R", "x", "z", "w", "y"),
                scan("E", "z", "w"),
                ("x", "y"),
            ),
            (
                scan("R", "y", "x", "u", "v"),
                scan("R", "x", "z", "w", "y"),
                scan("R", "z", "w", "x", "u"),
                ("x", "y", "u"),
            ),
        ]
        for a, b, c, kept in cases:
            semi = projected_join(b, c, kept)
            if keep:
                step = Join(
                    attributes=join_attributes(semi.attributes, a.attributes),
                    estimated_rows=1.0,
                    left=semi,
                    right=a,
                )
            else:
                step = AntiJoin(
                    attributes=a.attributes, estimated_rows=1.0, left=a, right=semi
                )
            compiled = compile_plan(step, structure)
            assert ("SemiJoinMeet" if keep else "AntiJoinMeet") in kinds(compiled.root)
            expected = Executor(structure, tuple(structure.universe)).run(step)
            assert ColumnarExecutor(structure).run(step).rows == expected.rows, kept


def brute_force(rows, key, emit, other, keep: bool) -> set:
    return {
        tuple(row[p] for p in emit)
        for row in rows
        if (tuple(row[p] for p in key) in other) == keep
    }


def pack(row: tuple[int, ...], base: int) -> int:
    key = 0
    for digit in row:
        key = key * base + digit
    return key


class TestKernels:
    """The generated kernels against their definitions, for every key
    order over two and three attributes, in both row encodings."""

    BASE = 4

    def _rows(self, arity: int, seed: int) -> set[tuple[int, ...]]:
        rng = random.Random(seed)
        every = list(product(range(self.BASE), repeat=arity))
        return set(rng.sample(every, len(every) // 3))

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "tuple"])
    @pytest.mark.parametrize("keep", [True, False], ids=["semijoin", "antijoin"])
    @pytest.mark.parametrize("arity", [2, 3])
    def test_half_join_probes_an_all_shared_right_side_in_place(self, arity, keep, packed):
        left, right = self._rows(arity, 1), self._rows(arity, 2)
        for order in permutations(range(arity)):
            # right attribute p is left attribute order[p]
            kernel = kernels.build_half_join(
                arity, arity, order, tuple(range(arity)), self.BASE, packed, keep
            )
            expected = brute_force(left, order, range(arity), right, keep)
            encode = (lambda row: pack(row, self.BASE)) if packed else (lambda row: row)
            got = kernel({encode(row) for row in left}, {encode(row) for row in right})
            assert got == {encode(row) for row in expected}, order

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "tuple"])
    def test_semijoin_keeps_the_matching_rows_rekeyed(self, packed):
        encode = (lambda row: pack(row, self.BASE)) if packed else (lambda row: row)
        kept = self._rows(3, 3)
        for other_arity, seed in ((2, 4), (3, 5)):
            other = self._rows(other_arity, seed)
            for key in permutations(range(3), other_arity):
                for emit in [(0, 1, 2), (2, 0), (1,)]:
                    kernel = kernels.build_semijoin(3, key, emit, self.BASE, packed)
                    got = kernel({encode(r) for r in kept}, {encode(r) for r in other})
                    expected = brute_force(kept, key, emit, other, True)
                    assert got == {encode(row) for row in expected}, (key, emit)

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "tuple"])
    @pytest.mark.parametrize("keep", [True, False], ids=["semijoin", "antijoin"])
    def test_meet_matches_the_projected_join(self, keep, packed):
        """A(x, y) against π_{x,y}(B(x, z) ⋈ C(z, y)) and π_y(B(z) ⋈ C(z, y))."""
        encode = (lambda row: pack(row, self.BASE)) if packed else (lambda row: row)
        a, b, c = self._rows(2, 8), self._rows(2, 9), self._rows(2, 10)
        two_paths = {(x, y) for x, z in b for w, y in c if z == w}
        kernel = kernels.build_meet(
            2, (0, 1), ((2, (0,), (1,), (0,)), (2, (1,), (0,), (1,))),
            self.BASE, packed, keep,
        )
        got = kernel(*({encode(row) for row in rows} for rows in (a, b, c)))
        assert got == {encode(r) for r in a if (r in two_paths) == keep}
        unary = {(z,) for z in range(self.BASE) if z % 2}
        reached = {(y,) for z, y in c if (z,) in unary}
        kernel = kernels.build_meet(
            2, (1,), ((1, (), (0,), ()), (2, (1,), (0,), (1,))), self.BASE, packed, keep
        )
        got = kernel(*({encode(row) for row in rows} for rows in (a, unary, c)))
        assert got == {encode((r[1],)) for r in a if ((r[1],) in reached) == keep}


class TestWhatTheTriangleCosts:
    """``on-triangle`` on the seeded 120-node graph of the layer ledger's
    engine-direct workload: 714 edges, 3 677 two-paths, 91 answers."""

    ON_TRIANGLE = parse("exists y exists z (E(x, y) & E(y, z) & E(z, x))")

    @pytest.fixture(scope="class")
    def graph(self) -> Structure:
        pairs = [(i, j) for i in range(120) for j in range(120) if i != j]
        edges = random.Random("0/graph/120").sample(pairs, round(0.05 * len(pairs)))
        return Structure(GRAPH, range(120), {"E": edges})

    def test_rows_materialized_stay_within_the_inputs_and_answers(self, graph):
        engine = Engine()
        answers = engine.answers(graph, self.ON_TRIANGLE)
        edges = len(graph.tuples("E"))
        assert engine.stats.execution.rows_materialized <= 3 * edges + len(answers)
        assert engine.stats.execution.joins == 2

    def test_explain_analyze_marks_the_projected_join_fused(self, graph):
        profile = Engine().profile(graph, self.ON_TRIANGLE)
        root = profile.to_dict()["plan"]
        assert root["op"] == "Project[x]"
        assert root["actual_rows"] == len(profile.answers) == 91
        (join,) = root["children"]
        project = next(c for c in join["children"] if c["op"] == "Project[y, x]")
        (inner,) = project["children"]
        assert inner["op"] == "Join[z]"
        for node in (join, project, inner):
            assert node["fused_into"] == "Project[x]"
            assert node["actual_rows"] is None
        assert all(c["actual_rows"] == 714 for c in inner["children"])
