"""Tests for neighborhood types, the type registry, and censuses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as fmt_st
from repro.locality.neighborhoods import (
    TypeRegistry,
    ball_key,
    max_ball_size,
    neighborhood_census,
    neighborhood_census_baseline,
    neighborhood_type,
    tuple_type_classes,
)
from repro.structures.builders import (
    directed_chain,
    disjoint_cycles,
    random_graph,
    undirected_chain,
    undirected_cycle,
)


class TestTypeRegistry:
    def test_same_type_for_isomorphic_structures(self):
        registry = TypeRegistry()
        first = undirected_cycle(5)
        second = undirected_cycle(5).relabel(lambda element: element + 10)
        assert registry.type_of(first) == registry.type_of(second)

    def test_different_types_for_non_isomorphic(self):
        registry = TypeRegistry()
        assert registry.type_of(undirected_cycle(4)) != registry.type_of(undirected_cycle(5))

    def test_ids_are_stable(self):
        registry = TypeRegistry()
        first = registry.type_of(undirected_cycle(4))
        registry.type_of(undirected_cycle(5))
        assert registry.type_of(undirected_cycle(4)) == first

    def test_representative_round_trip(self):
        registry = TypeRegistry()
        type_id = registry.type_of(undirected_cycle(4))
        from repro.structures.isomorphism import are_isomorphic

        assert are_isomorphic(registry.representative(type_id), undirected_cycle(4))

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            TypeRegistry().representative(0)

    def test_len_counts_classes(self):
        registry = TypeRegistry()
        registry.type_of(undirected_cycle(4))
        registry.type_of(undirected_cycle(5))
        registry.type_of(undirected_cycle(4))
        assert len(registry) == 2


class TestNeighborhoodTypes:
    def test_cycle_nodes_share_one_type(self):
        registry = TypeRegistry()
        cycle = undirected_cycle(8)
        types = {neighborhood_type(cycle, node, 2, registry) for node in cycle.universe}
        assert len(types) == 1

    def test_chain_has_three_types_at_radius_one(self):
        registry = TypeRegistry()
        chain = undirected_chain(6)
        census = neighborhood_census(chain, 1, registry)
        # Endpoints (2 nodes of one type) and interior nodes.
        assert sorted(census.values()) == [2, 4]

    def test_census_across_structures_comparable(self):
        registry = TypeRegistry()
        two_cycles = disjoint_cycles([8, 8])
        one_cycle = undirected_cycle(16)
        assert neighborhood_census(two_cycles, 2, registry) == neighborhood_census(
            one_cycle, 2, registry
        )


class TestTupleTypeClasses:
    def test_partition_covers_all_tuples(self):
        chain = directed_chain(5)
        tuples = [(a,) for a in chain.universe]
        classes = tuple_type_classes(chain, tuples, 1)
        flattened = [t for members in classes.values() for t in members]
        assert sorted(flattened) == sorted(tuples)

    def test_symmetric_pairs_in_same_class(self):
        chain = directed_chain(13)
        classes = tuple_type_classes(chain, [(4, 8), (8, 4)], 1)
        assert len(classes) == 1


class TestBallKeys:
    def test_equal_keys_certify_isomorphic_neighborhoods(self):
        cycle = undirected_cycle(9)
        keys = {ball_key(cycle, (node,), 2) for node in cycle.universe}
        # Isomorphic balls may present differently (that only costs a
        # duplicate probe), but far fewer presentations than nodes —
        # and the registry still merges them into a single type.
        assert len(keys) < cycle.size
        registry = TypeRegistry()
        assert len(neighborhood_census(cycle, 2, registry)) == 1
        assert len(registry) == 1

    def test_chain_endpoints_and_interior_differ(self):
        chain = undirected_chain(6)
        keys = [ball_key(chain, (node,), 1) for node in chain.universe]
        assert keys[0] == keys[5]
        assert keys[1] == keys[2] == keys[3] == keys[4]
        assert keys[0] != keys[1]

    def test_key_reflects_distinguished_tuple_order(self):
        chain = directed_chain(7)
        assert ball_key(chain, (2, 4), 1) != ball_key(chain, (4, 2), 1)


class TestCensusPipeline:
    def test_fast_census_matches_baseline(self):
        graph = random_graph(60, 0.05, seed=11)
        fast = neighborhood_census(graph, 1, TypeRegistry())
        base = neighborhood_census_baseline(graph, 1, TypeRegistry())
        assert fast == base

    @settings(max_examples=30, deadline=None)
    @given(fmt_st.graphs(max_size=6), st.integers(min_value=0, max_value=2))
    def test_fast_census_equals_baseline_property(self, graph, radius):
        fast = neighborhood_census(graph, radius, TypeRegistry())
        base = neighborhood_census_baseline(graph, radius, TypeRegistry())
        assert fast == base

    def test_key_dedup_skips_registry_work(self):
        cycle = undirected_cycle(40)
        registry = TypeRegistry()
        neighborhood_census(cycle, 2, registry)
        # 40 nodes collapse to a handful of presentations; all but the
        # first sighting of each are dictionary hits, and the handful of
        # misses needs at most a few isomorphism probes in the bucket.
        assert registry.key_hits >= 35
        assert registry.isomorphism_tests <= 5
        assert len(registry) == 1

    def test_census_memoized_per_structure_and_radius(self):
        graph = random_graph(30, 0.1, seed=5)
        registry = TypeRegistry()
        first = neighborhood_census(graph, 1, registry)
        hits_before = registry.key_hits
        second = neighborhood_census(graph, 1, registry)
        assert first == second
        assert registry.key_hits == hits_before  # served from the memo
        # Returned counters are copies: mutation must not poison the memo.
        second[999] = 123
        assert neighborhood_census(graph, 1, registry) == first

    def test_constants_take_the_baseline_path(self):
        from repro.logic.signature import Signature
        from repro.structures.structure import Structure

        signature = Signature({"E": 2}, constants=frozenset({"c"}))
        # A star centered on the constant: every radius-1 ball contains it.
        structure = Structure(
            signature, range(5), {"E": [(0, 1), (0, 2), (0, 3), (0, 4)]}, {"c": 0}
        )
        registry = TypeRegistry()
        census = neighborhood_census(structure, 1, registry)
        assert sum(census.values()) == 5
        assert registry.key_hits == 0  # keyed path must not engage


class TestMaxBallSize:
    def test_radius_zero(self):
        assert max_ball_size(5, 0) == 1

    def test_degree_zero(self):
        assert max_ball_size(0, 3) == 1

    def test_degree_two_is_path(self):
        # Degree ≤ 2: ball of radius r has at most 2r + 1 nodes.
        assert max_ball_size(2, 3) == 7

    def test_matches_tree_growth(self):
        assert max_ball_size(3, 2) == 1 + 3 + 6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            max_ball_size(-1, 2)
