"""Concurrency hammer for the engine's LRUCache (the thread-safety fix).

Before the lock, concurrent ``move_to_end``/``popitem`` on the shared
``OrderedDict`` corrupted the cache when several threads used one engine
(KeyError from ``move_to_end``, over-capacity dicts, double-counted
stats). These tests drive the exact interleavings that broke.
"""

import threading

import pytest

from repro.engine import Engine
from repro.engine.cache import LRUCache
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.structures.builders import directed_cycle
from repro.structures.structure import Structure

THREADS = 8
OPS_PER_THREAD = 800


def _run_threads(worker, count=THREADS):
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(seed):
        barrier.wait()
        try:
            worker(seed)
        except BaseException as error:  # noqa: BLE001 — the test *is* the catch
            errors.append(error)

    threads = [threading.Thread(target=wrapped, args=(seed,)) for seed in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestLRUCacheHammer:
    def test_mixed_ops_never_corrupt(self):
        cache = LRUCache(capacity=32, name=None)
        keyspace = 128  # 4× capacity so evictions happen constantly

        def worker(seed):
            for step in range(OPS_PER_THREAD):
                key = (seed * 31 + step * 7) % keyspace
                op = step % 5
                if op == 0:
                    cache.put(key, key * 2)
                elif op == 1:
                    value = cache.get(key)
                    assert value is None or value == key * 2
                elif op == 2:
                    value = cache.get_or_compute(key, lambda k=key: k * 2)
                    assert value == key * 2
                elif op == 3:
                    cache.evict_where(lambda k, s=seed: k % THREADS == s and k % 16 == 0)
                else:
                    snap = cache.snapshot()
                    assert 0 <= snap["size"] <= cache.capacity
                    assert 0.0 <= snap["hit_rate"] <= 1.0

        errors = _run_threads(worker)
        assert errors == []
        assert len(cache) <= cache.capacity
        # Every surviving value is the one its key maps to — no torn writes.
        for key in range(keyspace):
            value = cache.get(key)
            assert value is None or value == key * 2

    def test_stats_are_not_double_counted(self):
        cache = LRUCache(capacity=64)
        lookups_per_thread = 500

        def worker(seed):
            for step in range(lookups_per_thread):
                cache.get((seed, step))  # unique key: always a miss

        errors = _run_threads(worker)
        assert errors == []
        snap = cache.snapshot()
        # Misses must equal lookups exactly; pre-lock, racing threads lost
        # increments (read-modify-write on plain ints under contention).
        assert snap["misses"] == THREADS * lookups_per_thread
        assert snap["hits"] == 0

    def test_snapshot_is_a_consistent_cut(self):
        cache = LRUCache(capacity=16)
        stop = threading.Event()

        def mutate(seed):
            step = 0
            while not stop.is_set():
                cache.put((seed, step % 40), step)
                cache.get((seed, (step * 3) % 40))
                step += 1

        threads = [threading.Thread(target=mutate, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                snap = cache.snapshot()
                lookups = snap["hits"] + snap["misses"]
                if lookups:
                    assert snap["hit_rate"] == pytest.approx(snap["hits"] / lookups)
                assert snap["size"] <= snap["capacity"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_snapshot_totals_exact_under_eviction_pressure(self):
        """8 threads interleave snapshot() with puts that evict on every
        batch: every snapshot's hit+miss total must be internally exact
        (``lookups`` is computed under the same lock cut) and the totals
        observed across snapshots must be monotone — a torn read of the
        counters would show either a mismatched ``lookups`` or a total
        that goes backwards."""
        cache = LRUCache(capacity=8, name=None)
        keyspace = 64  # 8× capacity: every put batch evicts
        per_thread_lookups = OPS_PER_THREAD // 2

        def worker(seed):
            last_total = 0
            for step in range(OPS_PER_THREAD):
                key = (seed * 17 + step * 5) % keyspace
                if step % 2 == 0:
                    cache.put(key, key)
                    cache.get(key if step % 4 == 0 else (key + 1) % keyspace)
                else:
                    snap = cache.snapshot()
                    assert snap["lookups"] == snap["hits"] + snap["misses"]
                    assert snap["lookups"] >= last_total  # monotone cut
                    assert snap["size"] <= snap["capacity"]
                    if snap["lookups"]:
                        assert snap["hit_rate"] == pytest.approx(
                            snap["hits"] / snap["lookups"]
                        )
                    last_total = snap["lookups"]

        errors = _run_threads(worker)
        assert errors == []
        final = cache.snapshot()
        # Exactly one lookup per put step across all threads; no increment
        # may be lost or double-counted whatever the eviction interleaving.
        assert final["lookups"] == THREADS * per_thread_lookups
        assert final["evictions"] > 0

    def test_concurrent_get_or_compute_converges(self):
        cache = LRUCache(capacity=8)
        computed = []

        def worker(seed):
            value = cache.get_or_compute("shared", lambda: computed.append(seed) or 42)
            assert value == 42

        errors = _run_threads(worker)
        assert errors == []
        # Racing threads may duplicate the compute (documented: last put
        # wins) but the cached value is coherent afterwards.
        assert cache.get("shared") == 42
        assert 1 <= len(computed) <= THREADS

    def test_reentrant_compute_does_not_deadlock(self):
        cache = LRUCache(capacity=8)

        def outer():
            return cache.get_or_compute("inner", lambda: 7) + 1

        assert cache.get_or_compute("outer", outer) == 8
        assert cache.get("inner") == 7


def test_reads_of_other_structures_evicting_a_record_mid_patch(monkeypatch):
    """While one structure's read sits between its answer-cache lookup
    and its patch's commit, another thread — holding only the locks of
    the structures it reads — runs 300 reads that push the record out of
    a 16-entry cache.  The patch still commits, and the read and the
    reads after it answer correctly."""
    one_way = parse("E(x, y) & ~E(y, x)")
    engine = Engine(answer_cache_size=16)
    target = directed_cycle(6)
    others = [directed_cycle(5) for _ in range(300)]
    engine.answers(target, one_way)
    target.insert("E", (0, 2))
    deltas_since = Structure.deltas_since
    threads, errors = [], []

    def read_others():
        try:
            for other in others:
                engine.answers(other, one_way)
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    def crowded(self, epoch):
        if self is target and not threads:
            threads.append(threading.Thread(target=read_others))
            threads[0].start()
            threads[0].join(timeout=60)
        return deltas_since(self, epoch)

    monkeypatch.setattr(Structure, "deltas_since", crowded)
    assert engine.answers(target, one_way) == naive_answers(target, one_way)
    assert len(threads) == 1 and not threads[0].is_alive()
    assert errors == []
    monkeypatch.undo()
    assert len(engine.answer_cache) <= 16
    assert engine.answers(target, one_way) == naive_answers(target, one_way)
