"""A small LRU cache used for plans, answers and censuses.

Every cache is a bounded LRU map with hit/miss/eviction counters; the
answer cache additionally supports per-structure invalidation
(:meth:`evict_where`).  The caches that hold maintained indexes — the
engine's answer records and each type registry's census records — key a
structure by its process-unique ``uid``, not its content, and each entry
carries the structure epoch it answers: an update makes the entry stale
rather than orphaning it under a content hash that no longer matches.
:meth:`get`'s ``valid`` predicate is how a caller rejects such a stale
entry, and a rejected entry counts as a miss; :meth:`peek` hands the
stale entry to the code that brings it forward, without counting a
lookup.

The cache is **thread-safe**: the threaded server shares one engine
across its request threads, so its caches are hit concurrently, and an
unguarded ``OrderedDict`` corrupts under concurrent ``move_to_end`` /
``popitem`` (and double-counts hit/miss stats). Every mutating path —
including the counter updates — runs under one internal lock, and
:meth:`snapshot` takes the same lock so its counters and occupancy are a
consistent cut. :meth:`get_or_compute` runs ``compute`` *outside* the
lock (a slow compute must not serialize unrelated lookups, and a
re-entrant compute — the engine's census fallback calls back into the
answer cache — must not deadlock); two threads racing the same missing
key may therefore both compute it, and the last ``put`` wins, which is
harmless for the engine's pure, deterministic values.

Named caches double as telemetry sources: when the telemetry layer is
enabled, every lookup and eviction also updates
``cache.<name>.{hits,misses,evictions}`` counters and a
``cache.<name>.size`` gauge in the default metrics registry, so cache
behaviour shows up in benchmark snapshots without reaching into engine
internals.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any

from repro.telemetry.metrics import counter as _counter
from repro.telemetry.metrics import gauge as _gauge
from repro.telemetry.tracer import is_enabled as _telemetry_enabled

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded least-recently-used mapping with hit/miss/eviction counters."""

    def __init__(self, capacity: int, name: str | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()

    def _record(self, event: str, amount: int = 1) -> None:
        if amount and self.name is not None and _telemetry_enabled():
            _counter(f"cache.{self.name}.{event}").inc(amount)
            _gauge(f"cache.{self.name}.size").set(len(self._data))

    def get(
        self,
        key: Hashable,
        default: Any = None,
        valid: Callable[[Any], bool] | None = None,
    ) -> Any:
        """The value under ``key``, or ``default``; an entry that
        ``valid`` rejects is a miss (and stays for a ``put`` to replace)."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING or (valid is not None and not valid(value)):
                self.misses += 1
                self._record("misses")
                return default
            self.hits += 1
            self._record("hits")
            self._data.move_to_end(key)
            return value

    def peek(self, key: Hashable) -> Any:
        """The value under ``key``, or ``None``, valid or not: neither a
        lookup in the counters nor a use in the recency order."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            evicted = 0
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            self._record("evictions", evicted)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                self._record("hits")
                self._data.move_to_end(key)
                return value
            self.misses += 1
            self._record("misses")
        # Compute outside the lock: a slow (or re-entrant) compute must
        # not block other threads' lookups. Racing threads may duplicate
        # the work; the last put wins.
        value = compute()
        self.put(key, value)
        return value

    def evict_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; return count."""
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            self.evictions += len(doomed)
            self._record("evictions", len(doomed))
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self.evictions += dropped
            self._record("evictions", dropped)

    def snapshot(self) -> dict[str, Any]:
        """Counters and occupancy as a consistent, JSON-serializable dict."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "name": self.name,
                "capacity": self.capacity,
                "size": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "lookups": lookups,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LRUCache({f'{self.name!r}, ' if self.name else ''}"
                f"{len(self._data)}/{self.capacity}, "
                f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
            )
