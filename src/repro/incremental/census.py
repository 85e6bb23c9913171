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

from collections import Counter, OrderedDict

from repro.structures.gaifman import ball
from repro.structures.structure import Structure, _sort_key
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = ["CensusIndex", "CENSUS_RECORDS_LIMIT"]

#: How many (structure uid, radius) census records an index retains.
CENSUS_RECORDS_LIMIT = 32


class _CensusRecord:
    __slots__ = ("epoch", "census", "types")

    def __init__(self, epoch: int, census: Counter, types: dict) -> None:
        self.epoch = epoch
        self.census = census
        self.types = types  # element -> type id, the per-element ball index


class CensusIndex:
    """Maintained censuses keyed by (structure uid, radius).

    Content-hash memoization (the registry's ``census_memo``) answers
    "have I seen this exact structure before"; this index answers the
    incremental question — "I censused an *earlier epoch* of this very
    object; which elements can have changed type?".  Records keep the
    per-element type assignment so the census Counter can be adjusted
    type-by-type.
    """

    def __init__(self, capacity: int = CENSUS_RECORDS_LIMIT) -> None:
        self.capacity = capacity
        self._records: OrderedDict[tuple[int, int], _CensusRecord] = OrderedDict()
        self.patched = 0
        self.reused = 0
        self.dirty_elements = 0

    def record(
        self, structure: Structure, radius: int, census: Counter, types: dict
    ) -> None:
        """Remember a freshly computed census with its type assignment."""
        key = (structure.uid, radius)
        self._records[key] = _CensusRecord(structure.epoch, Counter(census), dict(types))
        self._records.move_to_end(key)
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)

    def patch(self, structure: Structure, radius: int, registry) -> Counter | None:
        """Bring the record up to ``structure.epoch`` and return the census.

        Returns ``None`` when there is no usable record (never censused,
        or the structure's delta log no longer reaches back to the
        recorded epoch) — the caller computes from scratch and calls
        :meth:`record`.
        """
        from repro.locality.neighborhoods import ball_key
        from repro.structures.gaifman import neighborhood

        key = (structure.uid, radius)
        record = self._records.get(key)
        if record is None:
            return None
        deltas = structure.deltas_since(record.epoch)
        if deltas is None:
            del self._records[key]
            return None
        self._records.move_to_end(key)
        if not deltas:
            self.reused += 1
            return Counter(record.census)
        seeds: set = set()
        for _, _, row in deltas:
            seeds.update(row)
        dirty = ball(structure, seeds, radius)
        with _span("incremental.census.patch") as patch_span:
            patch_span.set("radius", radius).set("deltas", len(deltas))
            patch_span.set("dirty", len(dirty)).set("size", structure.size)
            census = record.census
            for element in sorted(dirty, key=_sort_key):
                key_ = ball_key(structure, (element,), radius)
                new_type = registry.type_of_keyed(
                    key_,
                    lambda element=element: neighborhood(structure, (element,), radius),
                )
                old_type = record.types[element]
                if new_type == old_type:
                    continue
                census[old_type] -= 1
                if census[old_type] <= 0:
                    del census[old_type]
                census[new_type] += 1
                record.types[element] = new_type
        record.epoch = structure.epoch
        self.patched += 1
        self.dirty_elements += len(dirty)
        if _telemetry_enabled():
            _counter("incremental.census.patched").inc()
            _counter("incremental.census.dirty_elements").inc(len(dirty))
        return Counter(census)

