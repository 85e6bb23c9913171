"""Tests for the Gaifman graph, distances, balls and neighborhoods."""

import math

import pytest

from repro.errors import StructureError
from repro.logic.signature import SET, Signature
from repro.structures.builders import (
    directed_chain,
    disjoint_cycles,
    empty_graph,
    undirected_chain,
    undirected_cycle,
)
from repro.structures.gaifman import (
    ball,
    connected_components,
    diameter,
    distance,
    eccentricity,
    gaifman_adjacency,
    gaifman_graph,
    is_connected,
    neighborhood,
)
from repro.structures.isomorphism import are_isomorphic
from repro.structures.structure import Structure


class TestGaifmanGraph:
    def test_directed_edges_become_undirected(self):
        chain = directed_chain(3)
        adjacency = gaifman_adjacency(chain)
        assert 1 in adjacency[0]
        assert 0 in adjacency[1]

    def test_no_self_loops(self):
        loop = Structure(Signature({"E": 2}), [0], {"E": [(0, 0)]})
        assert gaifman_adjacency(loop)[0] == frozenset()

    def test_ternary_relation_connects_all_coordinates(self):
        sig = Signature({"R": 3})
        structure = Structure(sig, [0, 1, 2, 3], {"R": [(0, 1, 2)]})
        adjacency = gaifman_adjacency(structure)
        assert adjacency[0] == {1, 2}
        assert adjacency[3] == frozenset()

    def test_gaifman_graph_structure(self):
        graph = gaifman_graph(directed_chain(3))
        assert graph.holds("E", (1, 0))
        assert graph.holds("E", (0, 1))


class TestDistance:
    def test_distance_zero_to_self(self):
        chain = undirected_chain(5)
        assert distance(chain, 2, 2) == 0

    def test_distance_ignores_orientation(self):
        chain = directed_chain(5)
        assert distance(chain, 4, 0) == 4

    def test_distance_from_tuple_is_min(self):
        chain = undirected_chain(7)
        assert distance(chain, (0, 6), 5) == 1

    def test_unreachable_is_infinite(self):
        graph = empty_graph(3)
        assert math.isinf(distance(graph, 0, 2))

    def test_unknown_element_rejected(self):
        with pytest.raises(StructureError):
            distance(undirected_chain(3), 0, 99)


class TestBalls:
    def test_radius_zero_is_center(self):
        chain = undirected_chain(5)
        assert ball(chain, 2, 0) == {2}

    def test_radius_one_on_chain(self):
        chain = undirected_chain(5)
        assert ball(chain, 2, 1) == {1, 2, 3}

    def test_large_radius_covers_component(self):
        two = disjoint_cycles([4, 4])
        center = (0, 0)
        assert len(ball(two, center, 10)) == 4

    def test_negative_radius_rejected(self):
        with pytest.raises(StructureError):
            ball(undirected_chain(3), 0, -1)

    def test_tuple_center(self):
        chain = undirected_chain(9)
        members = ball(chain, (0, 8), 1)
        assert members == {0, 1, 7, 8}

    def test_set_center(self):
        chain = undirected_chain(9)
        assert ball(chain, {0, 8}, 1) == {0, 1, 7, 8}

    def test_walk_stops_at_the_radius(self, monkeypatch):
        import repro.structures.gaifman as gaifman_module

        path = undirected_chain(1000)
        counting = _CountingAdjacency(gaifman_adjacency(path))
        monkeypatch.setattr(gaifman_module, "gaifman_adjacency", lambda _: counting)
        assert ball(path, 500, 1) == {499, 500, 501}
        # Only elements at distance < r are expanded — never the rest of
        # the 1000-node component.
        assert counting.lookups <= 3


class _CountingAdjacency(dict):
    """An adjacency map that counts neighbour lookups."""

    lookups = 0

    def __getitem__(self, element):
        self.lookups += 1
        return super().__getitem__(element)

    def get(self, element, default=None):
        self.lookups += 1
        return super().get(element, default)


class TestNeighborhoods:
    def test_center_marked(self):
        chain = undirected_chain(5)
        nbhd = neighborhood(chain, 2, 1)
        assert nbhd.tuples("@0") == {(2,)}

    def test_interior_points_of_long_cycles_isomorphic(self):
        first = neighborhood(undirected_cycle(10), 3, 2)
        second = neighborhood(undirected_cycle(14), 8, 2)
        assert are_isomorphic(first, second)

    def test_endpoint_differs_from_interior(self):
        chain = undirected_chain(7)
        end = neighborhood(chain, 0, 1)
        middle = neighborhood(chain, 3, 1)
        assert not are_isomorphic(end, middle)

    def test_distinguished_marking_prevents_swaps(self):
        # Marks matter: pairing an endpoint with an interior node is not
        # isomorphic to the swapped pairing, because h(a_i) = b_i forces
        # the endpoint onto the interior node.
        chain = undirected_chain(9)
        forward = neighborhood(chain, (0, 4), 1)
        backward = neighborhood(chain, (4, 0), 1)
        assert not are_isomorphic(forward, backward)

    def test_pair_neighborhood_on_long_chain_is_symmetric(self):
        # The paper's Gaifman example: on a long chain the r-neighborhood
        # of (a, b) IS isomorphic to that of (b, a) — two disjoint chains.
        chain = directed_chain(13)
        forward = neighborhood(chain, (4, 8), 1)
        backward = neighborhood(chain, (8, 4), 1)
        assert are_isomorphic(forward, backward)

    def test_tuple_valued_elements_supported(self):
        two = disjoint_cycles([5, 5])
        nbhd = neighborhood(two, (0, 2), 1)
        assert nbhd.size == 3


class TestConnectivity:
    def test_connected_cycle(self):
        assert is_connected(undirected_cycle(6))

    def test_disconnected_components(self):
        two = disjoint_cycles([3, 4])
        components = connected_components(two)
        assert sorted(len(component) for component in components) == [3, 4]

    def test_single_node_connected(self):
        assert is_connected(empty_graph(1))

    def test_bare_set_components(self):
        structure = Structure(SET, range(4))
        assert len(connected_components(structure)) == 4


class TestMetrics:
    def test_eccentricity_of_chain_end(self):
        assert eccentricity(undirected_chain(5), 0) == 4

    def test_diameter_of_cycle(self):
        assert diameter(undirected_cycle(8)) == 4

    def test_diameter_infinite_when_disconnected(self):
        assert math.isinf(diameter(empty_graph(2)))
