"""The Gaifman graph, distances, balls, and neighborhoods.

These are the geometric primitives of every locality notion in the paper
(§3.4): the distance d(ā, b), the radius-r ball B_r(ā), and the
r-neighborhood N_r(ā) — the substructure induced by the ball with ā
distinguished.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable

from repro.errors import StructureError
from repro.structures.structure import Element, Structure

__all__ = [
    "gaifman_adjacency",
    "gaifman_graph",
    "distance",
    "ball",
    "neighborhood",
    "connected_components",
    "is_connected",
    "eccentricity",
    "diameter",
]


def gaifman_adjacency(structure: Structure) -> dict[Element, frozenset[Element]]:
    """The Gaifman graph as an adjacency map (memoized per structure).

    Two distinct elements are adjacent iff they co-occur in some tuple of
    some relation. For a graph structure this is the underlying undirected
    graph — exactly the "forget the orientation of edges" convention the
    paper uses for distances.
    """

    def compute() -> dict[Element, frozenset[Element]]:
        adjacency: dict[Element, set[Element]] = {
            element: set() for element in structure.universe
        }
        for name in structure.signature.relation_names():
            for row in structure.relations[name]:
                for first in row:
                    for second in row:
                        if first != second:
                            adjacency[first].add(second)
        return {element: frozenset(neighbors) for element, neighbors in adjacency.items()}

    return structure.cached(("gaifman",), compute)  # type: ignore[return-value]


def gaifman_graph(structure: Structure) -> Structure:
    """The Gaifman graph as a graph structure (symmetric edge relation)."""
    from repro.logic.signature import GRAPH

    adjacency = gaifman_adjacency(structure)
    edges = [
        (element, neighbor)
        for element, neighbors in adjacency.items()
        for neighbor in neighbors
    ]
    return Structure(GRAPH, structure.universe, {"E": edges})


def _bfs_distances(
    structure: Structure, sources: Iterable[Element], radius: float = math.inf
) -> dict[Element, int]:
    """Distance from the nearest source for every element within ``radius``.

    The walk stops expanding at depth ``radius``, so a bounded call costs
    O(|B_r| · degree), not O(|component|).
    """
    adjacency = gaifman_adjacency(structure)
    distances: dict[Element, int] = {}
    queue: deque[Element] = deque()
    for source in sources:
        if source not in structure:
            raise StructureError(f"element {source!r} is not in the universe")
        if source not in distances:
            distances[source] = 0
            queue.append(source)
    while queue:
        current = queue.popleft()
        depth = distances[current]
        if depth >= radius:
            continue
        for neighbor in adjacency[current]:
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                queue.append(neighbor)
    return distances


def _as_centers(
    structure: Structure, center: Element | tuple[Element, ...] | set[Element]
) -> tuple[Element, ...]:
    """Interpret ``center`` as a tuple of universe elements.

    A value that is itself a universe element is a 1-tuple (this takes
    precedence, so structures whose elements are tuples — e.g. disjoint
    unions — work); otherwise a tuple of universe elements is accepted
    as-is.  A ``set`` is never an element (it is unhashable), so a set of
    elements is unambiguous.
    """
    if isinstance(center, set):
        return tuple(center)
    if center in structure:
        return (center,)
    if isinstance(center, tuple):
        return center
    raise StructureError(f"center {center!r} is neither an element nor a tuple of elements")


def distance(structure: Structure, sources: Element | tuple[Element, ...], target: Element) -> float:
    """d(ā, b): length of a shortest Gaifman path from any a_i to b.

    Returns ``math.inf`` if b is unreachable from every source — the
    convention that makes "N_r(ā) is a disjoint union of components"
    statements work.
    """
    sources = _as_centers(structure, sources)
    if target not in structure:
        raise StructureError(f"element {target!r} is not in the universe")
    distances = _bfs_distances(structure, sources)
    return distances.get(target, math.inf)


def ball(
    structure: Structure,
    center: Element | tuple[Element, ...] | set[Element],
    radius: int,
) -> frozenset[Element]:
    """B_r(ā) = {b : d(ā, b) ≤ r}, the radius-r ball around ā.

    ``center`` is an element, a tuple of elements, or a set of elements.
    The breadth-first walk stops at depth r, so the cost is
    O(|B_r(ā)| · degree) over the (memoized, update-patched) Gaifman
    adjacency, independent of the size of ā's component.
    """
    if radius < 0:
        raise StructureError(f"radius must be non-negative, got {radius}")
    return frozenset(_bfs_distances(structure, _as_centers(structure, center), radius))


def neighborhood(
    structure: Structure,
    center: Element | tuple[Element, ...],
    radius: int,
    mark_prefix: str = "@",
) -> Structure:
    """N_r(ā): the substructure induced by B_r(ā) with ā distinguished.

    Distinguished elements are encoded as fresh singleton unary relations
    ``@0, @1, ...`` so that plain isomorphism between two neighborhoods is
    exactly isomorphism with h(a_i) = b_i, as the paper requires.
    """
    center = _as_centers(structure, center)
    members = ball(structure, center, radius)
    induced = structure.induced(members)
    return induced.with_distinguished(center, prefix=mark_prefix)


def connected_components(structure: Structure) -> list[frozenset[Element]]:
    """Connected components of the Gaifman graph, deterministic order."""
    remaining = set(structure.universe)
    components: list[frozenset[Element]] = []
    for element in structure.universe:
        if element not in remaining:
            continue
        distances = _bfs_distances(structure, (element,))
        component = frozenset(distances)
        components.append(component)
        remaining -= component
    return components


def is_connected(structure: Structure) -> bool:
    """Whether the Gaifman graph is connected (the CONN query, §3.3)."""
    return len(connected_components(structure)) == 1


def eccentricity(structure: Structure, element: Element) -> float:
    """Largest Gaifman distance from ``element`` (inf if disconnected)."""
    distances = _bfs_distances(structure, (element,))
    if len(distances) != structure.size:
        return math.inf
    return max(distances.values())


def diameter(structure: Structure) -> float:
    """Largest Gaifman distance between any two elements (inf if disconnected)."""
    best = 0.0
    for element in structure.universe:
        ecc = eccentricity(structure, element)
        if math.isinf(ecc):
            return math.inf
        best = max(best, ecc)
    return best
