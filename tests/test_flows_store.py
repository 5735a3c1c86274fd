"""Unit tests for the partitioned flow store."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.core.streaming import StreamingAggregator
from repro.flows import colstore
from repro.flows.store import FlowStore, FlowStoreError
from repro.flows.table import COLUMNS, FlowTable


@pytest.fixture(scope="module")
def three_day_flows(scenario):
    return scenario.isp_ce.generate_flows(
        dt.date(2020, 2, 19), dt.date(2020, 2, 21), fidelity=0.3
    )


@pytest.fixture
def store(tmp_path):
    return FlowStore(tmp_path / "store")


class TestWrites:
    def test_write_and_read_day(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        day_flows = three_day_flows.between_hours(start, start + 24)
        store.write_day(day, day_flows)
        assert store.read_day(day) == day_flows
        assert day in store

    def test_write_range_partitions(self, store, three_day_flows):
        written = store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert written == 3
        assert store.days() == [
            dt.date(2020, 2, 19), dt.date(2020, 2, 20), dt.date(2020, 2, 21),
        ]

    def test_wrong_day_rejected(self, store, three_day_flows):
        with pytest.raises(ValueError):
            store.write_day(dt.date(2020, 3, 1), three_day_flows)

    def test_rewrite_replaces(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        day_flows = three_day_flows.between_hours(start, start + 24)
        store.write_day(day, day_flows)
        store.write_day(day, day_flows.head(10))
        assert len(store.read_day(day)) == 10
        assert store.total_flows() == 10

    def test_empty_partition_allowed(self, store):
        store.write_day(dt.date(2020, 2, 19), FlowTable.empty())
        assert len(store.read_day(dt.date(2020, 2, 19))) == 0

    def test_delete_day(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        store.delete_day(dt.date(2020, 2, 20))
        assert dt.date(2020, 2, 20) not in store
        assert len(store) == 2
        store.delete_day(dt.date(2020, 2, 20))  # no-op


class TestReads:
    def test_read_range_concatenates(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        loaded = store.read_range(
            dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert loaded.total_bytes() == three_day_flows.total_bytes()
        assert len(loaded) == len(three_day_flows)

    def test_read_range_skips_missing(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        store.delete_day(dt.date(2020, 2, 20))
        loaded = store.read_range(
            dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert len(loaded) < len(three_day_flows)

    def test_require_complete(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 20)
        )
        with pytest.raises(KeyError):
            store.read_range(
                dt.date(2020, 2, 19), dt.date(2020, 2, 21),
                require_complete=True,
            )

    def test_missing_day_raises(self, store):
        with pytest.raises(KeyError):
            store.read_day(dt.date(2020, 1, 1))

    def test_backwards_range_rejected(self, store):
        with pytest.raises(ValueError):
            store.read_range(dt.date(2020, 2, 21), dt.date(2020, 2, 19))


@pytest.fixture
def manifest_saves(monkeypatch):
    """Roots of every store whose manifest is written, in call order."""
    saves = []
    original = FlowStore._save_manifest

    def counting_save(self):
        saves.append(self.root)
        original(self)

    monkeypatch.setattr(FlowStore, "_save_manifest", counting_save)
    return saves


class TestManifest:
    def test_survives_reopen(self, tmp_path, three_day_flows):
        store = FlowStore(tmp_path / "store")
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        reopened = FlowStore(tmp_path / "store")
        assert reopened.days() == store.days()
        assert reopened.total_flows() == len(three_day_flows)
        assert reopened.total_bytes() == three_day_flows.total_bytes()

    def test_totals_track_manifest(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert store.total_flows() == len(three_day_flows)

    def test_write_range_commits_manifest_once(
        self, tmp_path, three_day_flows, manifest_saves
    ):
        ranged = FlowStore(tmp_path / "ranged")
        written = ranged.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert written == 3
        assert manifest_saves == [ranged.root]
        daily = FlowStore(tmp_path / "daily")
        for day in timebase.iter_days(dt.date(2020, 2, 19),
                                      dt.date(2020, 2, 21)):
            start = timebase.hour_index(day, 0)
            daily.write_day(
                day, three_day_flows.between_hours(start, start + 24)
            )
        reopened = FlowStore(tmp_path / "ranged")
        assert reopened.state_token() == ranged.state_token()
        assert reopened.state_token() == FlowStore(
            tmp_path / "daily").state_token()
        for day in reopened.days():
            got, want = reopened.read_day(day), daily.read_day(day)
            for name in COLUMNS:
                assert np.array_equal(got.column(name), want.column(name))

    def test_failed_range_commits_days_sealed_before_the_error(
        self, tmp_path, three_day_flows, monkeypatch
    ):
        store = FlowStore(tmp_path / "store")
        original = FlowStore.write_day

        def failing_write_day(self, day, flows):
            if day == dt.date(2020, 2, 21):
                raise OSError("disk full")
            original(self, day, flows)

        monkeypatch.setattr(FlowStore, "write_day", failing_write_day)
        with pytest.raises(OSError):
            store.write_range(
                three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
            )
        assert FlowStore(tmp_path / "store").days() == [
            dt.date(2020, 2, 19), dt.date(2020, 2, 20)
        ]


class TestRangeEdgeCases:
    def test_same_day_start_and_stop(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        store.write_range(three_day_flows, dt.date(2020, 2, 19),
                          dt.date(2020, 2, 21))
        loaded = store.read_range(day, day)
        start = timebase.hour_index(day, 0)
        assert loaded == three_day_flows.between_hours(start, start + 24)

    def test_range_with_no_partitions_is_empty(self, store):
        loaded = store.read_range(
            dt.date(2020, 1, 1), dt.date(2020, 1, 7)
        )
        assert len(loaded) == 0

    def test_missing_interior_day_skipped(self, store, three_day_flows):
        store.write_range(three_day_flows, dt.date(2020, 2, 19),
                          dt.date(2020, 2, 21))
        store.delete_day(dt.date(2020, 2, 20))
        loaded = store.read_range(
            dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        middle = timebase.hour_index(dt.date(2020, 2, 20), 0)
        hours = loaded.column("hour")
        assert len(loaded) > 0
        assert not ((hours >= middle) & (hours < middle + 24)).any()

    def test_rewrite_is_atomic_replacement(self, store, three_day_flows):
        # A re-written day must never leave a stale temp file behind or
        # a partition/manifest mismatch: the partition is fully replaced
        # and immediately readable with a fresh checksum.
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        day_flows = three_day_flows.between_hours(start, start + 24)
        store.write_day(day, day_flows)
        before = store.state_token()
        store.write_day(day, day_flows.head(7))
        assert store.read_day(day) == day_flows.head(7)
        assert store.state_token() != before
        assert list(store.root.glob("*.tmp")) == []

    def test_day_flows_tracks_manifest(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        store.write_day(day, three_day_flows.between_hours(
            start, start + 24
        ))
        assert store.day_flows(day) == len(store.read_day(day))
        with pytest.raises(KeyError):
            store.day_flows(dt.date(2020, 1, 1))


def per_day_masked_writes(store, flows, start_day, end_day):
    """The masked per-day ``write_day`` loop ``write_range`` replaced."""
    hours = flows.column("hour")
    for day in timebase.iter_days(start_day, end_day):
        day_start = timebase.hour_index(day, 0)
        mask = (hours >= day_start) & (hours < day_start + 24)
        store.write_day(day, flows.filter(mask))


def tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


class TestWriteRangeSlices:
    """``write_range`` seals exactly what per-day masked writes seal."""

    START, END = dt.date(2020, 2, 19), dt.date(2020, 2, 21)

    def inputs(self, three_day_flows):
        order = np.random.default_rng(5).permutation(len(three_day_flows))
        shuffled = FlowTable({
            name: col[order] for name, col in three_day_flows.columns.items()
        })
        # "out-of-range" covers only the input's middle day, so the
        # other two days' rows fall outside it; "empty-days" reaches
        # past the input on both sides.
        return {
            "hour-sorted": (three_day_flows, self.START, self.END),
            "shuffled": (shuffled, self.START, self.END),
            "out-of-range": (shuffled, self.START + dt.timedelta(days=1),
                             self.START + dt.timedelta(days=1)),
            "empty-days": (three_day_flows, self.START - dt.timedelta(days=2),
                           self.END + dt.timedelta(days=1)),
        }

    @pytest.mark.parametrize(
        "case", ["hour-sorted", "shuffled", "out-of-range", "empty-days"])
    def test_files_and_manifest_byte_identical(
            self, tmp_path, three_day_flows, case):
        flows, start, end = self.inputs(three_day_flows)[case]
        sliced = FlowStore(tmp_path / "sliced")
        written = sliced.write_range(flows, start, end)
        masked = FlowStore(tmp_path / "masked")
        per_day_masked_writes(masked, flows, start, end)
        assert written == (end - start).days + 1
        assert tree_bytes(sliced.root) == tree_bytes(masked.root)
        assert sliced.state_token() == masked.state_token()


class TestIntegrity:
    # Whole-file drills on a partition's data file and sidecar; the
    # per-part drills live in test_flows_colstore_v3.py.
    @pytest.fixture
    def populated(self, store, three_day_flows):
        store.write_range(three_day_flows, dt.date(2020, 2, 19),
                          dt.date(2020, 2, 21))
        return store

    def _data_file(self, store):
        return store.root / "2020-02-20" / colstore.DATA_FILE

    def test_manifest_records_checksums(self, populated):
        for entry in populated._manifest.values():
            assert len(entry["sha256"]) == 64

    def test_corrupt_partition_raises_flow_store_error(self, populated):
        victim = self._data_file(populated)
        payload = bytearray(victim.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        victim.write_bytes(bytes(payload))
        with pytest.raises(FlowStoreError, match="corrupt"):
            populated.read_day(dt.date(2020, 2, 20))

    def test_truncated_partition_raises_flow_store_error(self, populated):
        victim = self._data_file(populated)
        victim.write_bytes(victim.read_bytes()[:100])
        with pytest.raises(FlowStoreError, match="corrupt"):
            populated.read_day(dt.date(2020, 2, 20))

    def test_missing_partition_file_raises(self, populated):
        self._data_file(populated).unlink()
        with pytest.raises(FlowStoreError, match="missing"):
            populated.read_day(dt.date(2020, 2, 20))

    def test_unverifiable_archive_without_checksum_raises(
        self, populated
    ):
        # A manifest entry may carry no checksum; a broken sidecar must
        # still surface as FlowStoreError (from the parse), not as a
        # json internal error.
        del populated._manifest["2020-02-20"]["sha256"]
        sidecar = populated.root / "2020-02-20" / colstore.SIDECAR
        sidecar.write_bytes(b"not json")
        with pytest.raises(FlowStoreError, match="cannot be parsed"):
            populated.read_day(dt.date(2020, 2, 20))

    def test_state_token_stable_across_reopen(self, populated):
        reopened = FlowStore(populated.root)
        assert reopened.state_token() == populated.state_token()

    def test_state_token_changes_on_delete(self, populated):
        before = populated.state_token()
        populated.delete_day(dt.date(2020, 2, 20))
        assert populated.state_token() != before


class TestStreamingIntegration:
    def test_iter_days_feeds_streaming(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        start = timebase.hour_index(dt.date(2020, 2, 19), 0)
        aggregator = StreamingAggregator(start, start + 72)
        for _, flows in store.iter_days():
            aggregator.feed(flows)
        batch = three_day_flows.hourly_bytes(start, start + 72)
        assert np.array_equal(
            aggregator.hourly_bytes().values, batch.astype(np.float64)
        )
