"""Neighborhood isomorphism types and censuses.

Everything in §3.4–3.5 of the paper reduces to comparing r-neighborhoods
up to isomorphism. This module provides:

* :class:`TypeRegistry` — assigns stable integer ids to isomorphism
  classes of (distinguished-tuple) structures, so neighborhoods from
  *different* structures get comparable type ids;
* :func:`neighborhood_type` / :func:`tuple_type_classes` — the type of a
  point or tuple, and the partition of all tuples by type;
* :func:`neighborhood_census` — the multiset {type: count} of point
  types, the object Hanf equivalence compares.

**The fast census pipeline.**  The naive algorithm (kept as
:func:`neighborhood_census_baseline`) materializes one neighborhood
:class:`~repro.structures.structure.Structure` per element and runs it
through the registry — O(n) structure constructions, WL refinements, and
isomorphism probes.  The fast pipeline instead computes a cheap *ball
key* per element — the ball relabeled into BFS-layer order, a concrete
presentation of N_r(ā).  Equal keys *certify* isomorphic
neighborhoods (the index-aligned map is an isomorphism), so only the
first element realizing each distinct key ever builds a real
neighborhood; every other element is a dictionary hit.  Isomorphic balls
with different presentations merely fall through to the registry's
fingerprint bucket, where exact isomorphism merges them as before —
exactness is never traded away.  Censuses are additionally memoized per
(structure, radius) in an LRU on the registry, so re-censusing a
structure (the bounded-degree evaluator's common case) is one lookup.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence

from repro.engine.cache import LRUCache
from repro.incremental.census import CensusIndex
from repro.resilience.budget import CancelToken
from repro.resilience.faults import fault_point
from repro.structures.gaifman import _bfs_distances, neighborhood
from repro.structures.invariants import structure_fingerprint
from repro.structures.isomorphism import are_isomorphic
from repro.structures.structure import Element, Structure, _sort_key
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = [
    "TypeRegistry",
    "neighborhood_type",
    "neighborhood_census",
    "neighborhood_census_baseline",
    "tuple_type_classes",
    "max_ball_size",
    "ball_key",
]


class TypeRegistry:
    """Stable ids for isomorphism classes of structures.

    ``type_of(S)`` returns the id of S's isomorphism class, creating a
    new id on first sight. Candidates are pre-bucketed by the canonical
    invariant fingerprint (degree sequence + WL color histogram,
    :func:`repro.structures.invariants.structure_fingerprint`), so most
    lookups do a single dictionary probe and zero exact isomorphism
    tests. ``use_fingerprint=False`` disables the bucketing (every
    lookup compares against every known class) — only useful for
    ablation experiments.

    ``type_of_keyed(key, build)`` is the census fast path: a concrete
    *presentation key* whose equality certifies isomorphism maps
    straight to a type id; only the first sighting of a key pays for
    structure construction and registration.  The registry also owns the
    per-(structure, radius) census memo used by
    :func:`neighborhood_census`.
    """

    def __init__(self, use_fingerprint: bool = True, census_memo_size: int = 256) -> None:
        self._buckets: dict[tuple, list[tuple[Structure, int]]] = defaultdict(list)
        self._next_id = 0
        self._use_fingerprint = use_fingerprint
        self._key_ids: dict[tuple, int] = {}
        self.isomorphism_tests = 0
        self.key_hits = 0
        self.census_memo = LRUCache(census_memo_size, name="census_memo")
        self.incremental = CensusIndex()

    def type_of(self, structure: Structure) -> int:
        fingerprint = structure_fingerprint(structure) if self._use_fingerprint else ()
        telemetry_on = _telemetry_enabled()
        for representative, type_id in self._buckets[fingerprint]:
            self.isomorphism_tests += 1
            if telemetry_on:
                _counter("locality.iso_tests").inc()
            if are_isomorphic(representative, structure):
                return type_id
        type_id = self._next_id
        self._next_id += 1
        self._buckets[fingerprint].append((structure, type_id))
        if telemetry_on:
            _counter("locality.types_registered").inc()
        return type_id

    def type_of_keyed(self, key: tuple, build) -> int:
        """The type id for a presentation key, building a structure on miss.

        ``key`` must satisfy: equal keys imply isomorphic structures
        (:func:`ball_key` guarantees this).  On a hit no structure is
        constructed and no isomorphism is attempted — the near-O(n)
        dictionary path of the census.
        """
        type_id = self._key_ids.get(key)
        if type_id is not None:
            self.key_hits += 1
            if _telemetry_enabled():
                _counter("locality.key_hits").inc()
            return type_id
        type_id = self.type_of(build())
        self._key_ids[key] = type_id
        return type_id

    def representative(self, type_id: int) -> Structure:
        """The first structure registered with this id."""
        for bucket in self._buckets.values():
            for representative, known_id in bucket:
                if known_id == type_id:
                    return representative
        raise KeyError(f"unknown type id {type_id}")

    def __len__(self) -> int:
        return self._next_id


# -- ball keys (the per-element work) ----------------------------------------


def _row_incidence(
    structure: Structure,
) -> dict[Element, tuple[tuple[str, tuple], ...]]:
    """Element → the (relation, row) pairs it occurs in (memoized).

    The per-element index that makes :func:`ball_key` O(|ball| · degree)
    instead of O(|structure|): a ball only ever needs the rows incident
    to its own members.
    """

    def compute() -> dict[Element, tuple[tuple[str, tuple], ...]]:
        incidence: dict[Element, list[tuple[str, tuple]]] = {
            element: [] for element in structure.universe
        }
        for name in structure.signature.relation_names():
            for row in structure.relations[name]:
                for element in set(row):
                    incidence[element].append((name, row))
        return {element: tuple(pairs) for element, pairs in incidence.items()}

    return structure.cached(("row-incidence",), compute)  # type: ignore[return-value]


def ball_key(
    structure: Structure, centers: tuple[Element, ...], radius: int
) -> tuple:
    """A concrete presentation key for N_r(centers).

    The ball's elements are relabeled ``0..m-1`` in (BFS-distance,
    element-sort-order) order and the induced relations, constants, and
    distinguished centers are encoded under that relabeling.  **Equal
    keys certify isomorphic neighborhoods**: aligning the i-th element
    of one presentation with the i-th of the other is an isomorphism
    respecting the distinguished tuple.  The converse may fail —
    isomorphic balls presented differently get different keys — which
    costs a duplicate registry probe, never a wrong merge.

    This is a pure function of (structure, centers, radius), touching
    only the ball's own rows — O(|ball| · degree) per call.
    """
    incidence = _row_incidence(structure)
    distances = _bfs_distances(structure, centers, radius)
    order = sorted(distances, key=lambda element: (distances[element], _sort_key(element)))
    index = {element: position for position, element in enumerate(order)}
    rows_by_name: dict[str, set[tuple[int, ...]]] = {}
    for element in order:
        for name, row in incidence[element]:
            if all(value in index for value in row):
                rows_by_name.setdefault(name, set()).add(
                    tuple(index[value] for value in row)
                )
    rows = tuple(
        (name, tuple(sorted(rows_by_name.get(name, ()))))
        for name in structure.signature.relation_names()
    )
    constants = tuple(
        sorted(
            (name, index[value])
            for name, value in structure.constants.items()
            if value in index
        )
    )
    marks = tuple(index[center] for center in centers)
    return (radius, len(order), marks, rows, constants)


def _ball_keys(
    structure: Structure,
    centers_list: Sequence[tuple[Element, ...]],
    radius: int,
    cancel_token: CancelToken | None = None,
) -> list[tuple]:
    """Ball keys for many center tuples, ticking ``cancel_token`` per ball."""
    keys = []
    for centers in centers_list:
        if cancel_token is not None:
            cancel_token.tick("locality.ball_keys")
        keys.append(ball_key(structure, centers, radius))
    return keys


# -- types and censuses ------------------------------------------------------


def neighborhood_type(
    structure: Structure,
    center: Element | tuple[Element, ...],
    radius: int,
    registry: TypeRegistry,
) -> int:
    """The isomorphism type id of N_r(center), relative to ``registry``."""
    return registry.type_of(neighborhood(structure, center, radius))


def _census_via_keys(
    structure: Structure,
    radius: int,
    registry: TypeRegistry,
    cancel_token: CancelToken | None = None,
    types_out: dict | None = None,
) -> Counter:
    centers_list = [(element,) for element in structure.universe]
    keys = _ball_keys(structure, centers_list, radius, cancel_token=cancel_token)
    census: Counter = Counter()
    for centers, key in zip(centers_list, keys):
        if cancel_token is not None:
            cancel_token.tick("locality.census")
        type_id = registry.type_of_keyed(
            key, lambda centers=centers: neighborhood(structure, centers, radius)
        )
        census[type_id] += 1
        if types_out is not None:
            types_out[centers[0]] = type_id
    return census


def neighborhood_census_baseline(
    structure: Structure,
    radius: int,
    registry: TypeRegistry,
    cancel_token: CancelToken | None = None,
) -> Counter:
    """The pre-pipeline census: one materialized neighborhood per element.

    Kept as the reference implementation — ablation benchmarks and the
    determinism suite compare the fast pipeline against it, and
    structures that interpret constants still take this path (a constant
    outside some ball must raise, exactly as :func:`neighborhood` does).
    """
    census: Counter = Counter()
    for element in structure.universe:
        if cancel_token is not None:
            cancel_token.tick("locality.census")
        census[registry.type_of(neighborhood(structure, element, radius))] += 1
    return census


def neighborhood_census(
    structure: Structure,
    radius: int,
    registry: TypeRegistry,
    *,
    cancel_token: CancelToken | None = None,
) -> Counter:
    """The census {type id: number of points realizing it}.

    "a realizes τ" in the paper's words — the census is the function
    τ ↦ #{a : N_r(a) has type τ} restricted to realized types.

    Runs the fast ball-key pipeline, memoized per (structure, radius) on
    the registry.  ``cancel_token`` is ticked per ball, so a deadline interrupts the
    census mid-structure; memo hits never consume budget.
    """
    with _span("locality.census") as census_span:
        memo_key = (structure, radius)
        cached = registry.census_memo.get(memo_key)
        if cached is not None:
            census_span.set("radius", radius).set("types", len(cached)).set("memo_hit", 1)
            return Counter(cached)
        fault_point("locality.census")
        if structure.constants:
            census = neighborhood_census_baseline(
                structure, radius, registry, cancel_token=cancel_token
            )
        else:
            patched = registry.incremental.patch(structure, radius, registry)
            if patched is not None:
                registry.census_memo.put(memo_key, Counter(patched))
                census_span.set("radius", radius).set("types", len(patched))
                census_span.set("incremental", 1)
                return patched
            types: dict = {}
            census = _census_via_keys(
                structure, radius, registry, cancel_token=cancel_token, types_out=types
            )
            registry.incremental.record(structure, radius, census, types)
        registry.census_memo.put(memo_key, Counter(census))
        if _telemetry_enabled():
            _counter("locality.censuses_computed").inc()
            _counter("locality.balls_computed").inc(len(structure.universe))
        census_span.set("radius", radius).set("types", len(census))
        return census


def tuple_type_classes(
    structure: Structure,
    tuples: Iterable[tuple[Element, ...]],
    radius: int,
    registry: TypeRegistry | None = None,
) -> dict[int, list[tuple[Element, ...]]]:
    """Partition tuples of elements by the iso type of their r-neighborhood.

    Gaifman locality says an FO query must be constant on every class of
    this partition — which is exactly how
    :func:`repro.locality.gaifman_locality.gaifman_locality_counterexample`
    checks it.  Ball keys for the tuples run through the same pipeline as
    the point census.
    """
    if registry is None:
        registry = TypeRegistry()
    tuples = [tuple(tuple_) for tuple_ in tuples]
    classes: dict[int, list[tuple[Element, ...]]] = defaultdict(list)
    if structure.constants:
        for tuple_ in tuples:
            type_id = neighborhood_type(structure, tuple_, radius, registry)
            classes[type_id].append(tuple_)
        return dict(classes)
    keys = _ball_keys(structure, tuples, radius)
    for tuple_, key in zip(tuples, keys):
        type_id = registry.type_of_keyed(
            key, lambda centers=tuple_: neighborhood(structure, centers, radius)
        )
        classes[type_id].append(tuple_)
    return dict(classes)


def max_ball_size(degree_bound: int, radius: int) -> int:
    """An upper bound on |B_r(a)| in structures of Gaifman degree ≤ k.

    1 + k + k(k-1) + ... + k(k-1)^(r-1): the size of the ball in the
    k-regular tree, which maximizes it. Used to bound |N(k, r)| in the
    bounded-degree machinery (Thm 3.10/3.11).
    """
    if degree_bound < 0 or radius < 0:
        raise ValueError("degree bound and radius must be non-negative")
    if degree_bound == 0 or radius == 0:
        return 1
    total = 1
    layer = degree_bound
    for _ in range(radius):
        total += layer
        layer *= max(degree_bound - 1, 1)
    return total
