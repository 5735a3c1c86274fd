"""Tests for the v3 columnar format and its predicate-first scan path.

Covers per-column encodings chosen at seal time, bitmap indexes
evaluated before row materialization, the cost-based bitmap-vs-scan
planner, unknown-encoding degradation to the raw fallback, corruption
drills on individual ``segments.bin`` parts, rejection of partitions in
any other format, and process-pool scans over pickled handles.
"""

import datetime as dt
import json

import numpy as np
import pytest

import repro.obs as obs
from repro.flows import colstore, encodings
from repro.flows.io import file_sha256
from repro import timebase
from repro.flows.io import write_npz
from repro.flows.store import FORMAT_V3, FlowStore, FlowStoreError
from repro.flows.table import COLUMNS
from repro.query import QuerySpec, execute_query, plan_query
from repro.query.procpool import ScanPool

START = dt.date(2020, 2, 19)
END = dt.date(2020, 2, 25)
MID = dt.date(2020, 2, 20)


@pytest.fixture(scope="module")
def week_flows(scenario):
    return scenario.isp_ce.generate_flows(START, END, fidelity=0.3)


@pytest.fixture
def v3_store(tmp_path, week_flows):
    store = FlowStore(tmp_path / "v3")
    store.write_range(week_flows, START, END)
    return store


def _spec(**kwargs):
    kwargs.setdefault("vantage", "isp-ce")
    kwargs.setdefault("start", START)
    kwargs.setdefault("end", END)
    return QuerySpec.build(**kwargs)


def _rewrite_sidecar(store, day, mutate):
    """Hand-edit one sidecar and re-chain the manifest hash to it."""
    day_dir = store.root / day.isoformat()
    path = day_dir / colstore.SIDECAR
    sidecar = json.loads(path.read_text())
    mutate(sidecar)
    path.write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    manifest_path = store.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[day.isoformat()]["sha256"] = file_sha256(path)
    manifest_path.write_text(json.dumps(manifest))
    return FlowStore(store.root)


class TestLayout:
    def test_partition_is_sidecar_plus_one_blob(self, v3_store):
        day_dir = v3_store.root / START.isoformat()
        names = sorted(p.name for p in day_dir.iterdir())
        assert names == sorted([colstore.SIDECAR, colstore.DATA_FILE])
        manifest = json.loads((v3_store.root / "manifest.json").read_text())
        assert manifest[START.isoformat()]["format"] == FORMAT_V3
        assert v3_store.open_partition(START).sidecar["format"] == FORMAT_V3

    def test_parts_are_aligned_and_hashed(self, v3_store):
        sidecar = v3_store.open_partition(START).sidecar
        blob_size = (
            v3_store.root / START.isoformat() / colstore.DATA_FILE
        ).stat().st_size
        seen = 0
        for meta in sidecar["columns"].values():
            for part in meta["parts"].values():
                assert part["offset"] % 64 == 0
                assert part["offset"] + part["nbytes"] <= blob_size
                assert len(part["sha256"]) == 64
                seen += 1
        assert seen >= len(COLUMNS)

    def test_seal_time_encoding_choices(self, v3_store):
        partition = v3_store.open_partition(START)
        stats = partition.encoding_stats()
        assert set(stats) == set(COLUMNS)
        # Low-cardinality protocol numbers dictionary-encode and carry
        # a bitmap index; the sorted hour column delta-packs.
        assert stats["proto"]["encoding"] == encodings.DICT
        assert stats["proto"]["index_nbytes"] > 0
        assert stats["hour"]["encoding"] == encodings.DELTA
        for name, column in stats.items():
            assert 0 < column["stored_nbytes"] <= column["raw_nbytes"]

    def test_partition_compresses_versus_raw(self, v3_store):
        stored = v3_store.partition_disk_bytes(START)
        raw = sum(
            column["raw_nbytes"] for column in
            v3_store.open_partition(START).encoding_stats().values()
        )
        assert 0 < stored < raw

    def test_column_stats_aggregate(self, v3_store):
        stats = v3_store.column_stats()
        assert set(stats) == set(COLUMNS)
        assert encodings.DICT in stats["proto"]["encodings"]
        assert stats["proto"]["stored_nbytes"] < \
            stats["proto"]["raw_nbytes"]
        assert stats["proto"]["max_cardinality"] >= 2

    def test_read_day_round_trips(self, v3_store, week_flows):
        for day in v3_store.days():
            start = timebase.hour_index(day, 0)
            written = week_flows.between_hours(start, start + 24)
            v3 = v3_store.read_day(day)
            for name in COLUMNS:
                assert v3.column(name).dtype == COLUMNS[name]
                assert np.array_equal(written.column(name), v3.column(name))

    def test_empty_partition_round_trips(self, tmp_path, week_flows):
        store = FlowStore(tmp_path / "empty3")
        empty = week_flows.filter(
            np.zeros(len(week_flows), dtype=bool)
        )
        store.write_day(START, empty)
        assert len(store.read_day(START)) == 0
        partition = store.open_partition(START)
        assert partition.rows == 0
        bundle, _ = partition.load(("proto", "n_bytes"))
        assert len(bundle) == 0


class TestPlanner:
    def test_filtered_query_plans_bitmap_strategy(self, v3_store):
        plan = plan_query(
            v3_store,
            _spec(where={"proto": 17}, group_by=["service_port"],
                  aggregates=["bytes"]),
        )
        counts = plan.strategy_counts()
        assert counts.get("bitmap", 0) >= 1
        assert sum(counts.values()) == len(plan.days)
        assert plan.to_dict()["strategies"] == counts

    def test_unfiltered_query_plans_scan(self, v3_store):
        plan = plan_query(
            v3_store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert plan.strategy_counts() == {"scan": 7}

    def test_sidecar_strategy_still_wins(self, v3_store):
        plan = plan_query(v3_store, _spec(aggregates=["bytes", "flows"]))
        assert plan.strategy_counts() == {"sidecar": 7}
        assert plan.estimated_bytes == 0

    def test_bitmap_estimate_below_scan_estimate(self, v3_store):
        filtered = _spec(where={"proto": 17},
                         group_by=["service_port"],
                         aggregates=["bytes"])
        unfiltered = _spec(group_by=["service_port", "proto"],
                           aggregates=["bytes"])
        assert 0 < plan_query(v3_store, filtered).estimated_bytes < \
            plan_query(v3_store, unfiltered).estimated_bytes


class TestBitmapScan:
    def test_filtered_scan_reads_fewer_bytes_than_plain_scan(
        self, v3_store, week_flows, reference_rows
    ):
        # The predicate-first scan (encoded predicate parts + gathered
        # rows) touches fewer bytes than a plain scan of every
        # referenced column would.
        spec = _spec(where={"proto": 17}, group_by=["service_port"],
                     aggregates=["bytes"])
        result = execute_query(v3_store, spec)
        plain = sum(
            v3_store.open_partition(day).column_nbytes(
                spec.referenced_columns()
            )
            for day in plan_query(v3_store, spec).days
        )
        assert result.rows == reference_rows(week_flows, spec)
        assert 0 < result.bytes_read < plain

    def test_bitmap_counters_fire(self, v3_store):
        obs.configure(telemetry=True)
        try:
            execute_query(
                v3_store,
                _spec(where={"proto": 17}, aggregates=["bytes"]),
            )
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        assert counters.get("query.bitmap-scans", 0) >= 1
        assert counters.get("colstore.bitmap-predicates", 0) >= 1

    def test_absent_value_short_circuits(self, v3_store):
        partition = v3_store.open_partition(START)
        # 255 is never generated as a protocol; the dict lookup proves
        # absence without touching codes or bitmap rows.
        spec = _spec(where={"proto": 255}, aggregates=["bytes"])
        bundle, bytes_read = partition.load_filtered(
            spec.where, ("n_bytes",)
        )
        assert len(bundle) == 0
        assert bytes_read == 0
        result = execute_query(v3_store, spec)
        assert result.rows == []
        assert result.rows_matched == 0

    def test_load_filtered_matches_mask_scan(self, v3_store):
        partition = v3_store.open_partition(START)
        table = v3_store.read_day(START)
        spec = _spec(where={"proto": [6, 17],
                            "dst_port": {"min": 0, "max": 2048}},
                     aggregates=["bytes"])
        bundle, _ = partition.load_filtered(
            spec.where, ("n_bytes", "proto")
        )
        mask = np.isin(table.column("proto"), [6, 17])
        mask &= table.column("dst_port") <= 2048
        assert len(bundle) == int(mask.sum())
        assert np.array_equal(
            bundle.column("n_bytes"), table.column("n_bytes")[mask]
        )

    def test_derived_key_predicate_parity(
        self, v3_store, week_flows, reference_rows
    ):
        spec = _spec(where={"transport": 2},
                     group_by=["service_port"], aggregates=["bytes"])
        assert execute_query(v3_store, spec).rows == \
            reference_rows(week_flows, spec)


class TestForeignFormats:
    """Manifest entries or sidecars in a format other than v3."""

    def _rewrite_manifest_entry(self, store, mutate):
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        mutate(manifest[MID.isoformat()])
        manifest_path.write_text(json.dumps(manifest))
        return FlowStore(store.root)

    def _as_v1(self, store):
        # How a v1 day was stored: one .npz archive beside the manifest,
        # an entry without a "format" field.
        archive = store.root / f"{MID.isoformat()}.npz"
        write_npz(store.read_day(MID), archive)

        def mutate(entry):
            del entry["format"]
            entry["sha256"] = file_sha256(archive)

        return self._rewrite_manifest_entry(store, mutate)

    def _as_v2(self, store):
        def mutate(entry):
            entry["format"] = 2

        return self._rewrite_manifest_entry(store, mutate)

    @pytest.mark.parametrize("fmt, named", [
        ("v1", r"v1 \(\.npz archive\)"),
        ("v2", "v2"),
    ], ids=["v1", "v2"])
    def test_foreign_partition_is_query_failure(
        self, v3_store, fmt, named
    ):
        store = getattr(self, f"_as_{fmt}")(v3_store)
        with pytest.raises(
            FlowStoreError, match=f"format {named}.*regenerate"
        ):
            store.open_partition(MID)
        spec = _spec(where={"proto": 17}, aggregates=["bytes"])
        plan = plan_query(store, spec)
        assert MID in plan.days
        result = execute_query(store, spec)
        assert [f.day for f in result.partitions_failed] == \
            [MID.isoformat()]
        assert f"format {fmt}" in result.partitions_failed[0].error
        assert result.partitions_scanned == len(plan.days) - 1

    def test_foreign_sidecar_is_rejected(self, v3_store):
        def mutate(sidecar):
            sidecar["format"] = 2

        store = _rewrite_sidecar(v3_store, MID, mutate)
        with pytest.raises(
            FlowStoreError, match="sidecar.*format v2.*regenerate"
        ):
            store.read_day(MID)


class TestIntegrity:
    def _flip_part(self, store, day, part_meta):
        day_dir = store.root / day.isoformat()
        path = day_dir / colstore.DATA_FILE
        payload = bytearray(path.read_bytes())
        target = part_meta["offset"] + part_meta["nbytes"] // 2
        payload[target] ^= 0xFF
        path.write_bytes(bytes(payload))

    def test_corrupt_column_part_names_column(self, v3_store):
        sidecar = v3_store.open_partition(MID).sidecar
        part = next(iter(sidecar["columns"]["n_bytes"]["parts"].values()))
        self._flip_part(v3_store, MID, part)
        with pytest.raises(
            FlowStoreError, match="column 'n_bytes'.*corrupt"
        ):
            v3_store.read_day(MID)

    def test_corrupt_bitmap_index_names_index(self, v3_store):
        partition = v3_store.open_partition(MID)
        index = partition.index_meta("proto")
        assert index is not None
        self._flip_part(v3_store, MID, index["part"])
        spec = _spec(where={"proto": 17}, aggregates=["bytes"])
        with pytest.raises(
            FlowStoreError, match="bitmap index on 'proto'.*corrupt"
        ):
            v3_store.open_partition(MID).load_filtered(
                spec.where, ("n_bytes",)
            )

    def test_projected_query_skips_unread_corruption(self, v3_store):
        sidecar = v3_store.open_partition(MID).sidecar
        part = next(iter(sidecar["columns"]["dst_asn"]["parts"].values()))
        self._flip_part(v3_store, MID, part)
        result = execute_query(
            v3_store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert result.n_failed == 0
        with pytest.raises(FlowStoreError, match="dst_asn"):
            v3_store.read_day(MID)

    def test_corrupt_partition_is_query_failure_not_crash(self, v3_store):
        sidecar = v3_store.open_partition(MID).sidecar
        part = next(iter(sidecar["columns"]["n_bytes"]["parts"].values()))
        self._flip_part(v3_store, MID, part)
        result = execute_query(
            v3_store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert result.n_failed == 1
        assert result.partitions_failed[0].day == MID.isoformat()

    def test_unknown_encoding_degrades_to_raw(self, v3_store):
        # Simulate a future writer: an encoding this reader does not
        # know, but with a checksummed raw fallback part kept alongside
        # it at the end of ``segments.bin``.
        import hashlib

        name = "hour"
        expected = v3_store.read_day(MID).column(name)
        raw = np.ascontiguousarray(expected).tobytes()
        data_path = v3_store.root / MID.isoformat() / colstore.DATA_FILE
        offset = data_path.stat().st_size
        with data_path.open("ab") as handle:
            handle.write(raw)

        def _mutate(sidecar):
            meta = sidecar["columns"][name]
            meta["encoding"] = "zstd-exotic"
            meta["parts"]["raw"] = {
                "offset": offset,
                "nbytes": len(raw),
                "sha256": hashlib.sha256(raw).hexdigest(),
                "dtype": expected.dtype.str,
                "count": int(expected.size),
            }

        reopened = _rewrite_sidecar(v3_store, MID, _mutate)
        obs.configure(telemetry=True)
        try:
            after = reopened.read_day(MID).column(name)
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        assert np.array_equal(after, expected)
        assert counters.get("colstore.encoding-degraded", 0) >= 1

    def test_unknown_encoding_without_raw_part_raises(self, v3_store):
        partition = v3_store.open_partition(MID)
        assert partition.sidecar["columns"]["proto"]["encoding"] == \
            encodings.DICT

        def _mutate(sidecar):
            sidecar["columns"]["proto"]["encoding"] = "zstd-exotic"

        reopened = _rewrite_sidecar(v3_store, MID, _mutate)
        with pytest.raises(
            FlowStoreError, match="unknown encoding.*no raw fallback"
        ):
            reopened.read_day(MID)


class TestProcessPool:
    def test_process_pool_matches_serial(self, v3_store):
        specs = [
            _spec(where={"proto": 17}, group_by=["service_port"],
                  aggregates=["bytes"]),
            _spec(group_by=["transport"], aggregates=["bytes", "flows"]),
        ]
        with ScanPool(2) as pool:
            for spec in specs:
                pooled = execute_query(v3_store, spec, pool=pool)
                serial = execute_query(v3_store, spec)
                assert pooled.rows == serial.rows
                assert pooled.rows_scanned == serial.rows_scanned
                assert pooled.rows_matched == serial.rows_matched

    def test_partition_handle_pickles_small(self, v3_store):
        import pickle

        partition = v3_store.open_partition(START)
        partition.load(("proto",))  # force the lazy mmap open
        payload = pickle.dumps(partition)
        day_dir = v3_store.root / START.isoformat()
        # The handle ships the sidecar (workers need values/counts for
        # predicate resolution) but never the mmap'd row data.
        sidecar_bytes = (day_dir / colstore.SIDECAR).stat().st_size
        data_bytes = (day_dir / colstore.DATA_FILE).stat().st_size
        assert len(payload) < sidecar_bytes + 4096
        assert len(payload) < data_bytes // 2
        clone = pickle.loads(payload)
        bundle, _ = clone.load(("proto", "n_bytes"))
        assert len(bundle) == partition.rows
