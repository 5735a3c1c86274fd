"""Unit tests for HyperLogLog and the streaming aggregator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import timebase
from repro.core.streaming import StreamingAggregator
from repro.flows.hll import HyperLogLog
from repro.flows.table import FlowTable


class TestHyperLogLog:
    def test_empty_counts_zero(self):
        assert HyperLogLog().count() == pytest.approx(0.0, abs=1.0)

    def test_small_exact_range(self):
        sketch = HyperLogLog()
        sketch.add_many(np.arange(100, dtype=np.uint64))
        assert sketch.count() == pytest.approx(100, rel=0.05)

    def test_large_cardinality_within_error(self):
        sketch = HyperLogLog(p=12)
        n = 200_000
        sketch.add_many(np.arange(n, dtype=np.uint64))
        assert sketch.count() == pytest.approx(n, rel=0.05)

    def test_duplicates_not_double_counted(self):
        sketch = HyperLogLog()
        values = np.arange(5000, dtype=np.uint64)
        sketch.add_many(values)
        sketch.add_many(values)
        assert sketch.count() == pytest.approx(5000, rel=0.05)

    def test_add_scalar(self):
        sketch = HyperLogLog()
        sketch.add(42)
        sketch.add(42)
        assert sketch.count() == pytest.approx(1.0, abs=0.5)

    def test_merge_equals_union(self):
        a, b = HyperLogLog(salt=3), HyperLogLog(salt=3)
        a.add_many(np.arange(0, 30_000, dtype=np.uint64))
        b.add_many(np.arange(20_000, 60_000, dtype=np.uint64))
        merged = a.merge(b)
        assert merged.count() == pytest.approx(60_000, rel=0.05)

    def test_merge_requires_same_parameters(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=10).merge(HyperLogLog(p=12))
        with pytest.raises(ValueError):
            HyperLogLog(salt=1).merge(HyperLogLog(salt=2))

    def test_precision_mismatch_message_is_explicit(self):
        with pytest.raises(ValueError, match="precisions.*p=10 vs p=12"):
            HyperLogLog(p=10).merge(HyperLogLog(p=12))
        with pytest.raises(ValueError, match="salt"):
            HyperLogLog(salt=1).union_update(HyperLogLog(salt=2))

    def test_union_update_matches_merge(self):
        a, b = HyperLogLog(salt=7), HyperLogLog(salt=7)
        a.add_many(np.arange(0, 30_000, dtype=np.uint64))
        b.add_many(np.arange(20_000, 60_000, dtype=np.uint64))
        merged = a.merge(b)
        a.union_update(b)
        assert a.count() == merged.count()

    def test_union_update_requires_same_precision(self):
        with pytest.raises(ValueError, match="precision"):
            HyperLogLog(p=10).union_update(HyperLogLog(p=12))

    def test_chunked_stream_merge_equals_one_shot(self):
        # The query engine's access pattern: each partition sketches its
        # own chunk, and partials are union-merged.  The result must be
        # register-identical to sketching the whole stream at once.
        rng = np.random.default_rng(42)
        stream = rng.integers(0, 2**32, size=120_000, dtype=np.uint64)
        one_shot = HyperLogLog(p=12)
        one_shot.add_many(stream)
        merged = HyperLogLog(p=12)
        for chunk in np.array_split(stream, 17):
            partial = HyperLogLog(p=12)
            partial.add_many(chunk)
            merged.union_update(partial)
        assert merged.count() == one_shot.count()
        true_count = len(np.unique(stream))
        assert merged.count() == pytest.approx(true_count, rel=0.05)

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=3)
        with pytest.raises(ValueError):
            HyperLogLog(p=19)

    def test_memory_footprint(self):
        assert HyperLogLog(p=12).memory_bytes == 4096

    def test_relative_error_decreases_with_precision(self):
        assert HyperLogLog(p=14).relative_error() < HyperLogLog(
            p=10
        ).relative_error()

    def test_32bit_address_inputs(self):
        sketch = HyperLogLog()
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 2**32, size=50_000, dtype=np.uint64)
        sketch.add_many(addresses)
        true_count = len(np.unique(addresses))
        assert sketch.count() == pytest.approx(true_count, rel=0.05)


class TestPerGroupSketches:
    """``HyperLogLog.per_group`` against one ``add_many`` per group."""

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([4, 12, 18]),
        salt=st.integers(0, 3),
        n_groups=st.integers(0, 6),
        data=st.data(),
    )
    def test_registers_equal_per_group_add_many(self, p, salt, n_groups,
                                                data):
        # Groups are drawn from range(n_groups), so some end up empty
        # and some hold a single row.
        n_rows = data.draw(st.integers(0, 40)) if n_groups else 0
        values = np.asarray(data.draw(st.lists(
            st.integers(0, (1 << 32) - 1), min_size=n_rows, max_size=n_rows,
        )), dtype=np.int64)
        groups = np.asarray(data.draw(st.lists(
            st.integers(0, max(n_groups - 1, 0)),
            min_size=n_rows, max_size=n_rows,
        )), dtype=np.int64)
        sketches = HyperLogLog.per_group(values, groups, n_groups,
                                         p=p, salt=salt)
        assert len(sketches) == n_groups
        for g, sketch in enumerate(sketches):
            reference = HyperLogLog(p=p, salt=salt)
            reference.add_many(values[groups == g])
            assert sketch.precision == p
            assert np.array_equal(sketch._registers, reference._registers)
            assert sketch.count() == reference.count()
            # Same parameters, so it merges like any other sketch.
            reference.union_update(sketch)

    @pytest.mark.parametrize("p", [4, 18])
    def test_empty_and_single_row_groups(self, p):
        values = np.array([7, 11, 11, 13], dtype=np.int64)
        groups = np.array([1, 3, 3, 3], dtype=np.int64)
        empty, single, also_empty, triple = HyperLogLog.per_group(
            values, groups, 4, p=p
        )
        assert not empty._registers.any()
        assert not also_empty._registers.any()
        assert empty.count() == 0.0
        assert round(single.count()) == 1
        assert round(triple.count()) == 2

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog.per_group(np.zeros(1), np.zeros(1), 1, p=3)


class TestStreamingAggregator:
    @pytest.fixture(scope="class")
    def week_flows(self, scenario):
        return scenario.isp_ce.generate_week_flows(
            timebase.MACRO_WEEKS["base"], fidelity=0.5
        )

    @pytest.fixture(scope="class")
    def window(self):
        return timebase.MACRO_WEEKS["base"].hour_range()

    def test_matches_batch_hourly_bytes(self, week_flows, window):
        start, stop = window
        aggregator = StreamingAggregator(start, stop)
        # Feed in awkward chunks.
        for offset in range(0, len(week_flows), 997):
            aggregator.feed(week_flows.head(offset + 997).filter(
                np.arange(min(offset + 997, len(week_flows))) >= offset
            ))
        batch = week_flows.hourly_bytes(start, stop)
        assert np.array_equal(
            aggregator.hourly_bytes().values, batch.astype(np.float64)
        )

    def test_port_totals_exact(self, week_flows, window):
        start, stop = window
        aggregator = StreamingAggregator(start, stop)
        aggregator.feed(week_flows)
        streaming_total = sum(aggregator.bytes_by_port().values())
        assert streaming_total == week_flows.total_bytes()

    def test_asn_totals_match_batch(self, week_flows, window):
        start, stop = window
        aggregator = StreamingAggregator(start, stop)
        aggregator.feed(week_flows)
        assert aggregator.bytes_by_asn() == week_flows.bytes_by("src_asn")

    def test_distinct_ip_estimates(self, week_flows, window):
        start, stop = window
        aggregator = StreamingAggregator(start, stop)
        aggregator.feed(week_flows)
        exact = week_flows.unique_ips_per_hour(start, stop, side="dst")
        estimated = aggregator.distinct_ips_per_hour().values
        busy = exact > 50
        ratio = estimated[busy] / exact[busy]
        assert np.all((ratio > 0.9) & (ratio < 1.1))

    def test_out_of_window_flows_ignored(self, week_flows, window):
        start, stop = window
        aggregator = StreamingAggregator(start + 24, stop - 24)
        aggregator.feed(week_flows)
        assert aggregator.flows_seen < len(week_flows)

    def test_merge_matches_single_pass(self, week_flows, window):
        start, stop = window
        half = len(week_flows) // 2
        first = StreamingAggregator(start, stop)
        first.feed(week_flows.head(half))
        second = StreamingAggregator(start, stop)
        mask = np.arange(len(week_flows)) >= half
        second.feed(week_flows.filter(mask))
        merged = first.merge(second)
        single = StreamingAggregator(start, stop)
        single.feed(week_flows)
        assert np.array_equal(
            merged.hourly_bytes().values, single.hourly_bytes().values
        )
        assert merged.flows_seen == single.flows_seen

    def test_merge_window_mismatch_rejected(self, window):
        start, stop = window
        with pytest.raises(ValueError):
            StreamingAggregator(start, stop).merge(
                StreamingAggregator(start, stop + 24)
            )

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            StreamingAggregator(10, 10)

    def test_invalid_ip_side_rejected(self):
        with pytest.raises(ValueError):
            StreamingAggregator(0, 24, ip_side="middle")

    def test_feed_stream_chains(self, week_flows, window):
        start, stop = window
        aggregator = StreamingAggregator(start, stop).feed_stream(
            [week_flows.head(100), FlowTable.empty()]
        )
        assert aggregator.flows_seen == 100
