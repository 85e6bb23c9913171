"""Tests for the relational algebra engine."""

import pytest

from repro.errors import EvaluationError
from repro.eval.algebra import Relation


@pytest.fixture
def people():
    return Relation.from_tuples(("name", "city"), [("ann", "nyc"), ("bob", "sf"), ("eve", "nyc")])


@pytest.fixture
def edges():
    return Relation.from_tuples(("src", "dst"), [(0, 1), (1, 2), (2, 0)])


class TestConstruction:
    def test_duplicate_attributes_rejected(self):
        with pytest.raises(EvaluationError):
            Relation(("a", "a"), frozenset())

    def test_row_arity_checked(self):
        with pytest.raises(EvaluationError):
            Relation(("a", "b"), frozenset({(1,)}))

    def test_nullary_conventions(self):
        assert bool(Relation.nullary(True))
        assert not bool(Relation.nullary(False))

    def test_empty(self):
        assert len(Relation.empty(("a",))) == 0

    def test_len_and_bool(self, people):
        assert len(people) == 3
        assert people


class TestSelection:
    def test_select_predicate(self, people):
        nyc = people.select(lambda row: row["city"] == "nyc")
        assert len(nyc) == 2

    def test_select_eq(self, people):
        assert len(people.select_eq("name", "bob")) == 1

    def test_select_attr_eq(self):
        rel = Relation.from_tuples(("a", "b"), [(1, 1), (1, 2)])
        assert rel.select_attr_eq("a", "b").rows == {(1, 1)}

    def test_unknown_attribute_rejected(self, people):
        with pytest.raises(EvaluationError):
            people.select_eq("age", 3)


class TestProjection:
    def test_project_reorders(self, people):
        projected = people.project(("city", "name"))
        assert ("nyc", "ann") in projected.rows

    def test_project_deduplicates(self, people):
        assert len(people.project(("city",))) == 2

    def test_column(self, people):
        assert people.column("city") == {"nyc", "sf"}


class TestRename:
    def test_rename(self, people):
        renamed = people.rename({"name": "person"})
        assert renamed.attributes == ("person", "city")
        assert renamed.rows == people.rows


class TestJoin:
    def test_natural_join_on_shared(self, edges):
        hops = edges.join(edges.rename({"src": "dst", "dst": "end"}))
        assert ("0", "1") not in hops.rows  # sanity: values are ints
        assert (0, 1, 2) in hops.rows

    def test_join_without_shared_is_product(self):
        left = Relation.from_tuples(("a",), [(1,), (2,)])
        right = Relation.from_tuples(("b",), [(3,)])
        joined = left.join(right)
        assert joined.rows == {(1, 3), (2, 3)}

    def test_product_requires_disjoint(self, people):
        with pytest.raises(EvaluationError):
            people.product(people)


class TestSetOperations:
    def test_union(self):
        left = Relation.from_tuples(("a",), [(1,)])
        right = Relation.from_tuples(("a",), [(2,)])
        assert left.union(right).rows == {(1,), (2,)}

    def test_difference(self):
        left = Relation.from_tuples(("a",), [(1,), (2,)])
        right = Relation.from_tuples(("a",), [(2,)])
        assert left.difference(right).rows == {(1,)}

    def test_intersection(self):
        left = Relation.from_tuples(("a",), [(1,), (2,)])
        right = Relation.from_tuples(("a",), [(2,), (3,)])
        assert left.intersection(right).rows == {(2,)}

    def test_incompatible_attributes_rejected(self, people, edges):
        with pytest.raises(EvaluationError):
            people.union(edges)


class TestComplement:
    def test_complement_over_domain(self):
        rel = Relation.from_tuples(("a", "b"), [(0, 0)])
        complement = rel.complement([0, 1])
        assert len(complement) == 3
        assert (0, 0) not in complement.rows

    def test_nullary_complement_flips_truth(self):
        assert not Relation.nullary(True).complement([0, 1])
        assert Relation.nullary(False).complement([0, 1])

    def test_double_complement_is_identity(self):
        rel = Relation.from_tuples(("a",), [(0,), (2,)])
        assert rel.complement([0, 1, 2]).complement([0, 1, 2]) == rel


class TestExtendColumns:
    def test_pads_with_domain(self):
        rel = Relation.from_tuples(("a",), [(1,)])
        extended = rel.extend_columns(("b",), [0, 1])
        assert extended.rows == {(1, 0), (1, 1)}

    def test_no_columns_is_identity(self, people):
        assert people.extend_columns((), [1]) is people
