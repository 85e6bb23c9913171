"""A small LRU cache used for plans and answers.

Both engine caches are bounded LRU maps with hit/miss/eviction counters;
the answer cache additionally supports per-structure invalidation.
Since structures became mutable (``Structure.insert``/``delete``), a key
stored before an update may *hash differently* afterwards — its content
hash moved with the structure it embeds.  Such entries are inert (no
probe with the old bucket's hash can compare equal to the new content),
but they can no longer be deleted by key, so :meth:`evict_where` and
eviction generally must never assume ``del d[key]`` works for a key
listed by iteration; see :meth:`evict_where`.

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

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                self._record("misses")
                return default
            self.hits += 1
            self._record("hits")
            self._data.move_to_end(key)
            return value

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
        """Drop every entry whose key satisfies ``predicate``; return count.

        Rebuilds the survivor map instead of deleting doomed keys one by
        one: a key whose hash changed since insertion (a mutated
        structure embedded in an answer-cache key) cannot be looked up —
        ``del`` would raise or, worse, silently miss — but iteration
        still reaches it, so rebuild-and-swap removes it reliably.
        """
        with self._lock:
            survivors = OrderedDict()
            doomed = 0
            for key, value in self._data.items():
                if predicate(key):
                    doomed += 1
                else:
                    survivors[key] = value
            self._data = survivors
            self.evictions += doomed
            self._record("evictions", doomed)
            return doomed

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
