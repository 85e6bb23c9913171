"""Delta-maintained locality censuses.

The census {type id: #elements realizing it} is the most expensive
derived index in the system — O(n) ball keys plus registry probes.  But
the neighborhood map is itself local: inserting or deleting a tuple t
can only change N_r(b) for elements b within distance r of set(t) in the
*final* Gaifman graph.

Soundness of the dirty set.  Let S be the union of set(t) over the
applied deltas and let B be the radius-r ball around S in the current
(post-delta) graph.  Claim: any element b whose r-neighborhood differs
between the recorded state and now satisfies d_now(S, b) ≤ r.  For a
single delta this is the usual maintenance lemma: an insert only adds
edges inside set(t), so any newly-reachable-within-r element is within r
of S afterwards; for a delete, take a pre-delete path from set(t) to b
of length ≤ r witnessing the change — its suffix after the last visit to
set(t) avoids the removed edges among set(t) except possibly at its
first vertex, so it survives and again d_now(S, b) ≤ r.  For a
*sequence* of deltas, consider any intermediate-state path of length ≤ r
from some touched tuple to b: the first edge of it missing in the final
graph was removed by a later delta whose endpoints are both in S, and
the surviving suffix from that endpoint bounds d_final(S, b) ≤ r.
Elements outside B keep both their ball and their incident rows, hence
their ball key, hence their type.

The index therefore recomputes ball keys for |B| elements instead of n —
on bounded-degree structures |B| is a constant independent of n.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import partial

from repro.resilience.budget import CancelToken
from repro.structures.gaifman import ball
from repro.structures.structure import Structure, _sort_key
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = ["CensusIndex", "CENSUS_RECORDS_LIMIT", "dirty_set", "rekey"]

#: How many (structure uid, radius) census records a type registry retains.
CENSUS_RECORDS_LIMIT = 32


def dirty_set(
    structure: Structure, deltas: list[tuple[str, str, tuple]], radius: int
) -> frozenset:
    """B: the radius-``radius`` ball, in the current graph, around every
    element of every delta row — the elements whose ball the deltas may
    have changed (complete by the lemma above)."""
    seeds: set = set()
    for _, _, row in deltas:
        seeds.update(row)
    return ball(structure, seeds, radius)


def rekey(
    structure: Structure,
    dirty: frozenset,
    radius: int,
    types: dict,
    census: Counter,
    type_of: Callable | None = None,
    step: Callable[[], None] | None = None,
) -> tuple[dict, Counter]:
    """Re-type the ``dirty`` elements; return their types and the census.

    Copy-on-write: ``types`` (element → type) and ``census`` (type →
    count) are left as they were, for the caller to replace when it
    commits.  A type is the element's radius-``radius`` ball key, mapped
    through ``type_of(element, key)`` when given; ``step`` runs before
    each element (budget ticks, fault points).
    """
    from repro.locality.neighborhoods import ball_key

    fresh: dict = {}
    census = Counter(census)
    for element in sorted(dirty, key=_sort_key):
        if step is not None:
            step()
        new_type = ball_key(structure, (element,), radius)
        if type_of is not None:
            new_type = type_of(element, new_type)
        fresh[element] = new_type
        old_type = types[element]
        if new_type != old_type:
            census[old_type] -= 1
            if not census[old_type]:
                del census[old_type]
            census[new_type] += 1
    return fresh, census


class _CensusRecord:
    """One census-cache entry: the census as of ``epoch``, and ``types``
    (element → type id, the per-element ball index) when it was keyed —
    ``None`` for a baseline census, which cannot be patched."""

    __slots__ = ("epoch", "census", "types")

    def __init__(self, epoch: int, census: Counter, types: dict | None) -> None:
        self.epoch = epoch
        self.census = census
        self.types = types


class CensusIndex:
    """The patch logic over census records, and its counters.

    The records themselves live in the type registry's one census cache,
    keyed by (structure uid, radius): a record at the structure's epoch
    is the memo hit, and an older one is what :meth:`patch` answers the
    incremental question for — "I censused an *earlier epoch* of this
    very object; which elements can have changed type?".  Records keep
    the per-element type assignment so the census Counter can be
    adjusted type-by-type.
    """

    def __init__(self) -> None:
        self.patched = 0
        self.dirty_elements = 0

    def patch(
        self,
        structure: Structure,
        radius: int,
        registry,
        record: _CensusRecord,
        cancel_token: CancelToken | None = None,
    ) -> Counter | None:
        """Bring ``record`` forward to ``structure.epoch`` in place and
        return the census.

        Returns ``None`` when the record cannot be patched (a baseline
        census, or the structure's delta log no longer reaches back to
        the recorded epoch) — the caller computes from scratch and makes
        a new record.  ``cancel_token`` is ticked per dirty element, as
        the cold census ticks it per ball; when it raises, the record is
        left as it was.
        """
        from repro.structures.gaifman import neighborhood

        deltas = structure.deltas_since(record.epoch)
        if deltas is None or record.types is None:
            return None
        dirty = dirty_set(structure, deltas, radius)
        tick = None if cancel_token is None else partial(cancel_token.tick, "locality.census")
        with _span("incremental.census.patch") as patch_span:
            patch_span.set("radius", radius).set("deltas", len(deltas))
            patch_span.set("dirty", len(dirty)).set("size", structure.size)
            fresh, census = rekey(
                structure, dirty, radius, record.types, record.census,
                type_of=lambda element, key: registry.type_of_keyed(
                    key, lambda: neighborhood(structure, (element,), radius)
                ),
                step=tick,
            )
        record.types.update(fresh)
        record.census, record.epoch = census, structure.epoch
        self.patched += 1
        self.dirty_elements += len(dirty)
        if _telemetry_enabled():
            _counter("incremental.census.patched").inc()
            _counter("incremental.census.dirty_elements").inc(len(dirty))
        return Counter(census)
