"""Seeded inputs and the answers they must produce.

The expected answers come from short set comprehensions over the edge
set, one per query, written independently of the program.  Set-up checks
each comprehension against the reference evaluator
(:func:`repro.eval.evaluator.answers`) on a small seeded instance of the
same family, because the reference evaluator needs seconds on the
workloads' own structures (n³ for three variables).
"""

from __future__ import annotations

import random

from repro.eval.evaluator import answers as reference_answers
from repro.logic.parser import parse
from repro.logic.signature import GRAPH
from repro.queries.zoo import fo_graph_corpus
from repro.server import wire
from repro.structures.builders import grid_graph
from repro.structures.structure import Structure

Edge = tuple
Rows = frozenset

#: The three queries every ``served-updates`` tenant prepares and
#: ``engine-direct`` maintains across writes.
GRID_QUERIES = {
    "one-way-edge": "E(x, y) & ~E(y, x)",
    "on-mutual-edge": "exists y. (E(x, y) & E(y, x))",
    "has-out-edge": "exists y E(x, y)",
}

#: Extra seeded edges on every grid, so tenants' grids differ in content
#: (structures are content-addressed) and the write queue starts full.
GRID_EXTRAS = 8


def zoo_texts() -> dict[str, str]:
    """The zoo corpus (``fo_graph_corpus``) as wire formula text, by name."""
    return {query.name: wire.format_formula(query.formula) for query in fo_graph_corpus()}


def random_edges(n: int, p: float, seed: int) -> set[Edge]:
    """A seeded loop-free digraph on ``range(n)`` with exactly the expected
    edge count of G(n, p), ``round(p · n(n-1))``.

    The count is fixed because the planner keys plans on cardinalities:
    under G(n, p) it varies with the seed, and so do the plans and the
    executor each plan is dispatched to.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return set(random.Random(f"{seed}/graph/{n}").sample(pairs, round(p * len(pairs))))


def grid(rows: int, cols: int, rng: random.Random) -> tuple[list, set[Edge], list[Edge]]:
    """``grid_graph(rows, cols)`` plus :data:`GRID_EXTRAS` seeded edges;
    returns the nodes, the edges, and the extras in insertion order."""
    base = grid_graph(rows, cols)
    nodes, edges = list(base.universe), set(base.relations["E"])
    extras = []
    for _ in range(GRID_EXTRAS):
        extras.append(new_edge(nodes, edges, rng))
        edges.add(extras[-1])
    return nodes, edges, extras


def new_edge(nodes: list, edges: set[Edge], rng: random.Random) -> Edge:
    """A seeded loop-free edge that ``edges`` does not hold yet."""
    while True:
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u != v and (u, v) not in edges:
            return (u, v)


class Shadow:
    """An edge set and its adjacency, given the same deltas as the program's
    structure.  Only the adjacency is kept up to date; answers are
    recomputed from scratch each time they are asked for."""

    def __init__(self, nodes: list, edges: set[Edge]) -> None:
        self.nodes, self.edges = nodes, set(edges)
        self.out: dict = {x: set() for x in nodes}
        self.into: dict = {x: set() for x in nodes}
        for x, y in self.edges:
            self.out[x].add(y)
            self.into[y].add(x)

    def apply(self, kind: str, edge: Edge) -> None:
        """Insert or delete one edge."""
        x, y = edge
        if kind == "insert":
            self.edges.add(edge)
            self.out[x].add(y)
            self.into[y].add(x)
        else:
            self.edges.discard(edge)
            self.out[x].discard(y)
            self.into[y].discard(x)

    def answers(self, names: list[str]) -> dict[str, Rows]:
        """ans(query) for each of ``names``, columns in sorted variable order."""
        return {
            name: _answers(name, self.nodes, self.edges, self.out, self.into) for name in names
        }


def expected(names: list[str], nodes: list, edges: set[Edge]) -> dict[str, Rows]:
    """ans(query) for each of ``names`` on one graph."""
    return Shadow(nodes, edges).answers(names)


def _answers(name: str, nodes: list, edges: set[Edge], out: dict, into: dict) -> Rows:
    if name == "has-out-edge":
        return frozenset((x,) for x in nodes if out[x])
    if name == "has-in-edge":
        return frozenset((x,) for x in nodes if into[x])
    if name == "has-loop":
        return frozenset((x,) for x in nodes if x in out[x])
    if name == "on-triangle":
        return frozenset(
            (x,) for x in nodes if any(into[x] & out[y] for y in out[x])
        )
    if name == "out-edges-reciprocated":
        return frozenset((x,) for x in nodes if out[x] <= into[x])
    if name == "edge":
        return frozenset(edges)
    if name == "mutual-edge":
        return frozenset((x, y) for x, y in edges if (y, x) in edges)
    if name == "distance-two":
        return frozenset(
            (x, y) for x in nodes for z in out[x] for y in out[z] if y not in out[x]
        )
    if name == "out-dominated":
        return frozenset(
            (x, y) for x in nodes for y in nodes if x != y and out[x] <= out[y]
        )
    if name == "one-way-edge":
        return frozenset((x, y) for x, y in edges if (y, x) not in edges)
    if name == "on-mutual-edge":
        return frozenset((x,) for x in nodes if out[x] & into[x])
    raise KeyError(f"no expected answers for query {name!r}")


def check_against_reference(seed: int) -> list[str]:
    """Names of queries whose comprehension disagrees with the reference
    evaluator on small seeded instances of the workloads' graph families."""
    grid_nodes, grid_edges, _ = grid(5, 6, random.Random(f"{seed}/reference-grid"))
    families = [
        (zoo_texts(), list(range(24)), random_edges(24, 0.15, seed)),
        (GRID_QUERIES, grid_nodes, grid_edges),
    ]
    wrong = []
    for texts, nodes, edges in families:
        structure = Structure(GRAPH, nodes, {"E": edges})
        answers = expected(list(texts), nodes, edges)
        wrong += [
            name
            for name, text in texts.items()
            if reference_answers(structure, parse(text)) != answers[name]
        ]
    return wrong
