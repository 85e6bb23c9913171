"""Metrics registry unit tests: counters, gauges, histogram percentiles."""

import json
import random
import threading

import pytest

from repro.telemetry.metrics import Histogram, MetricsRegistry


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc(4)
        assert registry.counter("events").value == 5

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("size").set(10)
        registry.gauge("size").set(3)
        assert registry.gauge("size").value == 3

    def test_one_name_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_concurrent_increments_from_two_threads(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(10_000):
                registry.counter("shared").inc()

        threads = [threading.Thread(target=bump) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("shared").value == 20_000


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        h = Histogram("latency")
        for value in range(1, 101):
            h.observe(float(value))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.min == 1.0 and h.max == 100.0

    def test_percentile_validates_range(self):
        h = Histogram("latency")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_histogram_summary(self):
        h = Histogram("empty")
        assert h.summary() == {"count": 0}
        assert h.percentile(50) == 0.0

    def test_moments_stay_exact_past_the_sample_limit(self):
        original = Histogram.SAMPLE_LIMIT
        try:
            Histogram.SAMPLE_LIMIT = 10
            h = Histogram("big")
            for value in range(1, 101):
                h.observe(float(value))
            assert h.count == 100
            assert h.max == 100.0
            assert len(h._sample) == 10
        finally:
            Histogram.SAMPLE_LIMIT = original


class TestSnapshotAndReport:
    def test_snapshot_is_json_serializable_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.counter("a.count").inc(1)
        registry.gauge("cache.size").set(7)
        registry.histogram("ms").observe(1.5)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["a.count", "b.count"]
        assert snap["gauges"]["cache.size"] == 7
        assert snap["histograms"]["ms"]["count"] == 1

    def test_report_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("engine.executions").inc(3)
        registry.gauge("cache.plan.size").set(2)
        registry.histogram("executor.ms.Join").observe(0.5)
        text = registry.report()
        assert "engine.executions" in text
        assert "cache.plan.size" in text
        assert "executor.ms.Join" in text

    def test_empty_report(self):
        assert "no metrics recorded" in MetricsRegistry().report()

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0
        assert "x" not in registry


def _small_histogram(name, limit):
    # Histogram uses __slots__, so shrink the reservoir via a subclass
    # rather than an instance attribute.
    cls = type("SmallHistogram", (Histogram,), {"SAMPLE_LIMIT": limit, "__slots__": ()})
    return cls(name)


class TestReservoirSampling:
    def test_sample_keeps_tracking_after_limit(self):
        # The pre-fix failure mode: after SAMPLE_LIMIT the sample froze
        # on warm-up traffic, so p95/p99 never reflected the live stream.
        hist = _small_histogram("lat", 100)
        for _ in range(100):
            hist.observe(1.0)
        for _ in range(10_000):
            hist.observe(1000.0)
        assert hist.count == 10_100
        assert hist.percentile(50) == 1000.0
        assert hist.percentile(99) == 1000.0

    def test_reservoir_is_uniform_ish(self):
        hist = _small_histogram("lat", 500)
        for value in range(10_000):
            hist.observe(float(value))
        sample_mean = sum(hist._sample) / len(hist._sample)
        assert len(hist._sample) == 500
        assert 3500 < sample_mean < 6500  # true mean ~5000

    def test_reservoir_deterministic_across_instances(self):
        def build():
            hist = _small_histogram("same.name", 50)
            for value in range(2000):
                hist.observe(float(value))
            return list(hist._sample)

        assert build() == build()

    def test_no_rng_below_the_sample_limit(self):
        """The replacement RNG (about 2.5 KB) is made on the first
        replacement: a histogram that never fills its sample holds none."""
        hist = Histogram("server.request_ms", {"tenant": "one-request"})
        hist.observe(1.0)
        assert hist._rng is None
        small = _small_histogram("lat", 10)
        for value in range(10):
            small.observe(float(value))
        assert small._rng is None
        small.observe(10.0)
        assert small._rng is not None

    def test_lazy_rng_samples_as_an_eagerly_seeded_algorithm_r(self):
        name = "server.request_ms"
        hist = Histogram(name, {"tenant": "t"})
        limit = Histogram.SAMPLE_LIMIT
        values = [float((7919 * index) % 100_003) for index in range(limit + 1000)]
        for value in values:
            hist.observe(value)
        # Algorithm R with the RNG seeded from the series name up front.
        rng, sample = random.Random(hist.name), []
        for count, value in enumerate(values, start=1):
            if len(sample) < limit:
                sample.append(value)
            else:
                slot = rng.randrange(count)
                if slot < limit:
                    sample[slot] = value
        assert hist._sample == sample
        assert hist._sample != values[:limit]  # some slots were replaced

    def test_aggregates_stay_exact(self):
        hist = _small_histogram("lat", 10)
        for value in range(1, 1001):
            hist.observe(float(value))
        assert hist.count == 1000
        assert hist.total == 500500.0
        assert hist.min == 1.0
        assert hist.max == 1000.0


class TestLabels:
    def test_labels_select_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("req", tenant="a").inc()
        registry.counter("req", tenant="b").inc(2)
        assert registry.counter("req", tenant="a").value == 1
        assert registry.counter("req", tenant="b").value == 2

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("req", b="2", a="1").inc()
        metric = registry.counter("req", a="1", b="2")
        assert metric.value == 1
        assert metric.name == 'req{a="1",b="2"}'
        assert metric.base_name == "req"
        assert metric.labels == {"a": "1", "b": "2"}

    def test_unlabeled_and_labeled_coexist(self):
        registry = MetricsRegistry()
        registry.counter("req").inc(5)
        registry.counter("req", tenant="a").inc()
        assert registry.counter("req").value == 5

    def test_cardinality_bounded_by_overflow_bucket(self):
        from repro.telemetry.metrics import MAX_LABEL_SETS

        registry = MetricsRegistry()
        for index in range(MAX_LABEL_SETS + 50):
            registry.counter("req", tenant=f"t{index}").inc()
        overflow = registry.counter("req", tenant="one-more")
        assert overflow.labels == {"overflow": "true"}
        # The 50 post-cap tenants all collapsed into the same series.
        assert overflow.value == 50
        names = [m.name for m in registry.metrics() if m.base_name == "req"]
        assert len(names) == MAX_LABEL_SETS + 1

    def test_snapshot_carries_labeled_keys(self):
        registry = MetricsRegistry()
        registry.counter("req", tenant="a").inc()
        registry.gauge("width", pool="x").set(4)
        registry.histogram("lat", route="/v1").observe(2.0)
        snap = registry.snapshot()
        assert snap["counters"]['req{tenant="a"}'] == 1
        assert snap["gauges"]['width{pool="x"}'] == 4
        assert snap["histograms"]['lat{route="/v1"}']["count"] == 1

    def test_reset_clears_label_accounting(self):
        from repro.telemetry.metrics import MAX_LABEL_SETS

        registry = MetricsRegistry()
        for index in range(MAX_LABEL_SETS):
            registry.counter("req", tenant=f"t{index}")
        registry.reset()
        fresh = registry.counter("req", tenant="after-reset")
        assert fresh.labels == {"tenant": "after-reset"}
