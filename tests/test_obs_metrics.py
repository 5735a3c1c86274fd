"""Unit tests for the metric instruments and registries."""

import json
import math
import random
import threading
import time
from fractions import Fraction

import pytest

from repro.obs import metrics


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = metrics.Counter("flows")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_registry_returns_same_instrument(self):
        registry = metrics.MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_top_counters_ordering(self):
        registry = metrics.MetricsRegistry()
        registry.counter("small").inc(1)
        registry.counter("big").inc(100)
        registry.counter("mid").inc(10)
        assert registry.top_counters(2) == [("big", 100), ("mid", 10)]


class TestGauge:
    def test_unset_is_none(self):
        assert metrics.Gauge("g").value is None

    def test_last_write_wins(self):
        g = metrics.MetricsRegistry().gauge("g")
        g.set(1.5)
        g.set(2.5)
        assert g.value == 2.5

    def test_inc_dec_from_unset(self):
        g = metrics.Gauge("g")
        g.inc()
        g.inc(4)
        g.dec()
        assert g.value == 4.0
        g.dec(4)
        assert g.value == 0.0

    def test_concurrent_inc_dec_balance(self):
        g = metrics.Gauge("depth")

        def churn():
            for _ in range(2_000):
                g.inc()
                g.dec()

        workers = [threading.Thread(target=churn) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert g.value == 0.0


class TestHistogram:
    def test_quantiles_within_relative_accuracy(self):
        h = metrics.Histogram("h")
        for v in range(1, 101):
            h.record(v)
        # Extremes are tracked exactly; interior quantiles come from
        # log-scale buckets with a relative-accuracy guarantee.
        assert h.quantile(0.0) == 1
        assert h.quantile(1.0) == 100
        assert h.quantile(0.5) == pytest.approx(50.5, rel=0.02)
        assert h.quantile(0.9) == pytest.approx(90.1, rel=0.02)

    def test_empty_quantile_is_nan(self):
        import math

        assert math.isnan(metrics.Histogram("h").quantile(0.5))

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            metrics.Histogram("h").quantile(1.5)

    def test_summary_statistics(self):
        h = metrics.Histogram("h")
        for v in (2.0, 4.0, 6.0):
            h.record(v)
        assert h.count == 3
        assert h.total == 12.0
        assert h.min == 2.0
        assert h.max == 6.0
        assert h.mean == pytest.approx(4.0)

    def test_snapshot_keys(self):
        h = metrics.Histogram("h")
        assert h.snapshot() == {"count": 0}
        h.record(1.0)
        snap = h.snapshot()
        for key in ("count", "total", "min", "max", "mean", "p50", "p99"):
            assert key in snap


class TestStreamingHistogram:
    """Behaviour specific to the bounded log-bucket quantile sketch."""

    def test_single_value_quantiles_exact(self):
        h = metrics.Histogram("h")
        for _ in range(10):
            h.record(7.25)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(7.25, rel=1e-9)

    def test_relative_accuracy_bound_vs_sorted_reference(self):
        rng = random.Random(20200316)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(5_000)]
        alpha = 0.01
        h = metrics.Histogram("h", relative_accuracy=alpha)
        for v in values:
            h.record(v)
        ordered = sorted(values)
        for q in (0.01, 0.1, 0.5, 0.9, 0.99):
            rank = q * (len(ordered) - 1)
            lo = ordered[int(rank)]
            hi = ordered[min(int(rank) + 1, len(ordered) - 1)]
            estimate = h.quantile(q)
            # The sketch guarantees relative error alpha against one
            # of the order statistics bracketing the rank.
            assert lo * (1 - 2 * alpha) <= estimate <= hi * (1 + 2 * alpha)

    def test_count_sum_min_max_exact(self):
        rng = random.Random(7)
        values = [rng.uniform(0.001, 1e6) for _ in range(1_000)]
        h = metrics.Histogram("h")
        for v in values:
            h.record(v)
        assert h.count == len(values)
        assert h.total == pytest.approx(sum(values), rel=1e-12)
        assert h.min == min(values)
        assert h.max == max(values)

    def test_memory_bounded_by_dynamic_range_not_count(self):
        rng = random.Random(11)
        h = metrics.Histogram("h")
        for _ in range(50_000):
            h.record(rng.uniform(0.001, 1000.0))
        # Nine decades at 1% relative accuracy is well under a
        # thousand distinct buckets, however many points stream in.
        assert h.n_buckets < 1_000
        assert h.count == 50_000

    def test_zero_and_negative_values_counted(self):
        h = metrics.Histogram("h")
        h.record(0.0)
        h.record(-5.0)
        h.record(10.0)
        assert h.count == 3
        assert h.min == -5.0
        assert h.quantile(0.0) == -5.0
        assert h.quantile(1.0) == 10.0

    def test_merge_equals_single_stream(self):
        rng = random.Random(3)
        values = [rng.lognormvariate(1.0, 1.5) for _ in range(4_000)]
        whole = metrics.Histogram("whole")
        parts = [metrics.Histogram(f"part{i}") for i in range(4)]
        for i, v in enumerate(values):
            whole.record(v)
            parts[i % 4].record(v)
        merged = metrics.Histogram("merged")
        for part in parts:
            merged.merge(part)
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)
        assert merged.min == whole.min
        assert merged.max == whole.max
        for q in (0.05, 0.5, 0.95, 0.99):
            assert merged.quantile(q) == pytest.approx(
                whole.quantile(q), rel=1e-9
            )

    def test_merge_rejects_mismatched_accuracy(self):
        a = metrics.Histogram("a", relative_accuracy=0.01)
        b = metrics.Histogram("b", relative_accuracy=0.02)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_invalid_relative_accuracy_rejected(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                metrics.Histogram("h", relative_accuracy=bad)

    def test_concurrent_records_and_merges(self):
        target = metrics.Histogram("target")
        sources = [metrics.Histogram(f"s{i}") for i in range(4)]

        def feed(hist):
            rng = random.Random(id(hist) % 1_000)
            for _ in range(5_000):
                hist.record(rng.uniform(0.01, 100.0))

        threads = [
            threading.Thread(target=feed, args=(h,)) for h in sources
        ] + [threading.Thread(target=feed, args=(target,))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for h in sources:
            target.merge(h)
        assert target.count == 25_000
        assert not math.isnan(target.quantile(0.5))


def _nearest_rank(values, q):
    """Sorted-reference nearest-rank quantile, rank computed on the
    decimal ``q`` exactly."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(str(q)) * len(ordered)))
    return ordered[rank - 1]


QUANTILES = (0.01, 0.07, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


class TestSmallSampleQuantiles:
    """Exact nearest-rank answers up to ``EXACT_SAMPLES`` observations."""

    def test_three_latencies_report_the_outlier(self):
        h = metrics.Histogram("h")
        for v in (0.045, 0.052, 0.311):
            h.record(v)
        snap = h.snapshot()
        assert snap["p50"] == 0.052
        assert snap["p90"] == 0.311
        assert snap["p99"] == 0.311

    def test_one_to_ten(self):
        h = metrics.Histogram("h")
        for v in range(1, 11):
            h.record(v)
        assert h.quantile(0.5) == 5
        assert h.quantile(0.9) == 9
        assert h.quantile(0.99) == 10

    def test_matches_sorted_reference_for_n_up_to_100(self):
        rng = random.Random(20200316)
        alpha = metrics.Histogram.DEFAULT_RELATIVE_ACCURACY
        for n in range(1, 101):
            values = [rng.lognormvariate(-2.0, 1.0) for _ in range(n)]
            h = metrics.Histogram("h")
            for v in values:
                h.record(v)
            assert h.quantile(0.0) == min(values)
            assert h.quantile(1.0) == max(values)
            for q in QUANTILES:
                expected = _nearest_rank(values, q)
                if n <= metrics.Histogram.EXACT_SAMPLES:
                    assert h.quantile(q) == expected, (n, q)
                else:
                    assert h.quantile(q) == pytest.approx(
                        expected, rel=alpha
                    ), (n, q)

    def test_zero_values_ranked_exactly(self):
        h = metrics.Histogram("h")
        for v in (0.0, 0.0, 3.0, -1.0):
            h.record(v)
        assert h.quantile(0.25) == -1.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.75) == 0.0
        assert h.quantile(0.9) == 3.0

    @pytest.mark.parametrize("sizes", [
        (0, 10), (3, 4), (30, 34), (30, 35), (70, 5), (5, 70), (80, 90),
    ])
    def test_merge_equals_single_stream_in_both_states(self, sizes):
        rng = random.Random(sum(sizes))
        parts = [
            [rng.lognormvariate(0.0, 1.5) for _ in range(size)]
            for size in sizes
        ]
        whole = metrics.Histogram("whole")
        merged = metrics.Histogram("merged")
        for values in parts:
            part = metrics.Histogram("part")
            for v in values:
                whole.record(v)
                part.record(v)
            merged.merge(part)
        assert merged.count == whole.count
        for q in QUANTILES:
            assert merged.quantile(q) == whole.quantile(q), q

    def test_records_after_an_exact_merge_stay_exact(self):
        a, b = metrics.Histogram("a"), metrics.Histogram("b")
        for v in (5.0, 1.0):
            a.record(v)
        b.record(3.0)
        a.merge(b)
        a.record(4.0)
        assert [a.quantile(q) for q in (0.25, 0.5, 0.75, 1.0)] == [
            1.0, 3.0, 4.0, 5.0,
        ]


class TestTimer:
    def test_records_positive_duration(self):
        t = metrics.Timer("t")
        with t.time():
            time.sleep(0.005)
        assert t.count == 1
        assert t.total >= 0.004

    def test_nested_use_records_each(self):
        t = metrics.Timer("t")
        with t.time():
            with t.time():
                pass
        assert t.count == 2


class TestRegistrySnapshot:
    def test_snapshot_is_json_serializable(self):
        registry = metrics.MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(2.0)
        with registry.timer("t").time():
            pass
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["timers"]["t"]["count"] == 1


class TestNullRegistry:
    def test_shared_noop_instruments(self):
        registry = metrics.NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        registry.counter("a").inc(100)
        assert registry.counter("a").value == 0
        registry.gauge("g").set(5)
        assert registry.gauge("g").value is None
        registry.histogram("h").record(1.0)
        assert registry.histogram("h").count == 0

    def test_null_timer_usable_as_context(self):
        registry = metrics.NullRegistry()
        with registry.timer("t").time():
            pass
        assert registry.timer("t").count == 0

    def test_disabled_flag_and_empty_snapshot(self):
        registry = metrics.NullRegistry()
        assert not registry.enabled
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "timers": {}
        }
        assert registry.top_counters() == []

    def test_noop_overhead_is_small(self):
        # 100k no-op increments must be far below any timing that would
        # show up in the tier-1 suite (generous bound to avoid flakes).
        registry = metrics.NullRegistry()
        counter = registry.counter("hot")
        t0 = time.perf_counter()
        for _ in range(100_000):
            counter.inc()
        assert time.perf_counter() - t0 < 0.5
