"""Tests for the core Structure class."""

import pickle

import pytest

from repro.errors import SignatureError, StructureError
from repro.logic.signature import GRAPH, SET, Signature
from repro.structures.builders import random_graph
from repro.structures.structure import Structure


@pytest.fixture
def triangle():
    return Structure(GRAPH, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]})


class TestConstruction:
    def test_size(self, triangle):
        assert triangle.size == 3
        assert len(triangle) == 3

    def test_empty_universe_rejected(self):
        with pytest.raises(StructureError):
            Structure(GRAPH, [])

    def test_duplicate_elements_merged(self):
        structure = Structure(SET, [0, 0, 1])
        assert structure.size == 2

    def test_missing_relations_default_empty(self):
        structure = Structure(GRAPH, [0])
        assert structure.tuples("E") == frozenset()

    def test_undeclared_relation_rejected(self):
        with pytest.raises(SignatureError):
            Structure(GRAPH, [0], {"F": [(0, 0)]})

    def test_wrong_arity_tuple_rejected(self):
        with pytest.raises(StructureError):
            Structure(GRAPH, [0], {"E": [(0,)]})

    def test_tuple_outside_universe_rejected(self):
        with pytest.raises(StructureError):
            Structure(GRAPH, [0], {"E": [(0, 7)]})

    def test_constants_interpreted(self):
        sig = Signature({"E": 2}, constants={"c"})
        structure = Structure(sig, [0, 1], {"E": []}, {"c": 1})
        assert structure.constant("c") == 1

    def test_missing_constant_rejected(self):
        sig = Signature({"E": 2}, constants={"c"})
        with pytest.raises(StructureError):
            Structure(sig, [0, 1])

    def test_constant_outside_universe_rejected(self):
        sig = Signature({}, constants={"c"})
        with pytest.raises(StructureError):
            Structure(sig, [0], constants={"c": 5})

    def test_undeclared_constant_rejected(self):
        with pytest.raises(SignatureError):
            Structure(GRAPH, [0], constants={"c": 0})


class TestMembership:
    def test_holds(self, triangle):
        assert triangle.holds("E", (0, 1))
        assert not triangle.holds("E", (1, 0))

    def test_holds_unknown_relation(self, triangle):
        with pytest.raises(SignatureError):
            triangle.holds("F", (0, 1))

    def test_contains(self, triangle):
        assert 0 in triangle
        assert 9 not in triangle

    def test_active_domain(self):
        structure = Structure(GRAPH, [0, 1, 2, 3], {"E": [(0, 1)]})
        assert structure.active_domain() == {0, 1}


class TestValueSemantics:
    def test_equality_ignores_universe_order(self):
        first = Structure(GRAPH, [0, 1, 2], {"E": [(0, 1)]})
        second = Structure(GRAPH, [2, 1, 0], {"E": [(0, 1)]})
        assert first == second
        assert hash(first) == hash(second)

    def test_different_edges_not_equal(self, triangle):
        other = Structure(GRAPH, [0, 1, 2], {"E": [(0, 1)]})
        assert triangle != other

    def test_universe_deterministically_sorted(self):
        structure = Structure(SET, [3, 1, 2])
        assert structure.universe == (1, 2, 3)


class TestDerivedStructures:
    def test_induced_restricts_relations(self, triangle):
        induced = triangle.induced([0, 1])
        assert induced.tuples("E") == {(0, 1)}

    def test_induced_outside_universe_rejected(self, triangle):
        with pytest.raises(StructureError):
            triangle.induced([0, 9])

    def test_induced_must_cover_constants(self):
        sig = Signature({"E": 2}, constants={"c"})
        structure = Structure(sig, [0, 1], {"E": []}, {"c": 1})
        with pytest.raises(StructureError):
            structure.induced([0])

    def test_relabel(self, triangle):
        relabeled = triangle.relabel(lambda element: element + 10)
        assert relabeled.holds("E", (10, 11))

    def test_relabel_must_be_injective(self, triangle):
        with pytest.raises(StructureError):
            triangle.relabel(lambda element: 0)

    def test_disjoint_union_tags_elements(self, triangle):
        union = triangle.disjoint_union(triangle)
        assert union.size == 6
        assert union.holds("E", ((0, 0), (0, 1)))
        assert union.holds("E", ((1, 0), (1, 1)))

    def test_disjoint_union_requires_same_signature(self, triangle):
        other = Structure(SET, [0])
        with pytest.raises(SignatureError):
            triangle.disjoint_union(other)

    def test_with_relation_extends_signature(self, triangle):
        extended = triangle.with_relation("P", 1, [(0,)])
        assert extended.holds("P", (0,))
        assert extended.signature.has_relation("P")

    def test_with_distinguished_marks_elements(self, triangle):
        marked = triangle.with_distinguished((1, 2))
        assert marked.tuples("@0") == {(1,)}
        assert marked.tuples("@1") == {(2,)}

    def test_with_distinguished_outside_universe_rejected(self, triangle):
        with pytest.raises(StructureError):
            triangle.with_distinguished((9,))

    def test_reduct_drops_relations(self):
        sig = Signature({"E": 2, "P": 1})
        structure = Structure(sig, [0], {"E": [(0, 0)], "P": [(0,)]})
        reduct = structure.reduct(["E"])
        assert reduct.signature == GRAPH
        assert reduct.holds("E", (0, 0))


class TestDegrees:
    def test_in_out_degree(self, triangle):
        assert triangle.out_degree(0) == 1
        assert triangle.in_degree(0) == 1

    def test_degree_sets(self):
        star = Structure(GRAPH, [0, 1, 2], {"E": [(0, 1), (0, 2)]})
        in_degrees, out_degrees = star.degree_sets()
        assert in_degrees == {0, 1}
        assert out_degrees == {0, 2}

    def test_max_degree_uses_gaifman_graph(self):
        path = Structure(GRAPH, [0, 1, 2], {"E": [(0, 1), (1, 2)]})
        assert path.max_degree() == 2

    def test_degree_requires_binary(self):
        structure = Structure(Signature({"P": 1}), [0], {"P": [(0,)]})
        with pytest.raises(StructureError):
            structure.degree_sets("P")

    def test_is_graph(self, triangle):
        assert triangle.is_graph()
        assert not Structure(SET, [0]).is_graph()


class TestPickling:
    def test_roundtrip_drops_caches_keeps_content(self):
        graph = random_graph(12, 0.3, seed=2)
        graph.cached(("probe",), lambda: "cached-value")
        clone = pickle.loads(pickle.dumps(graph))
        # Memo slots arrive empty (they are rebuilt on demand)...
        assert clone._cache == {}
        assert clone._hash is None
        # ...but the mathematical content survives exactly.
        assert clone == graph
        assert hash(clone) == hash(graph)

    def test_signature_with_frozen_relations_roundtrips(self):
        graph = random_graph(5, 0.5, seed=9)
        clone = pickle.loads(pickle.dumps(graph.signature))
        assert clone == graph.signature
        assert hash(clone) == hash(graph.signature)
