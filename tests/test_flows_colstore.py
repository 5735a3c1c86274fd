"""Tests for the columnar partition layout and its query paths.

Covers the sidecar's role in every query: corruption drills that must
degrade to :class:`FlowStoreError` naming the broken piece, projection
pushdown with I/O accounting, zone-map data skipping (physical and
derived keys, sidecars written before derived zones existed), and
sidecar pre-aggregate serving.  Answers are checked against the
in-memory reference (the ``reference_rows`` fixture).  Encodings,
bitmap scans and the cost model live in ``test_flows_colstore_v3.py``.
"""

import datetime as dt
import json
import shutil

import numpy as np
import pytest

import repro.obs as obs
from repro import timebase
from repro.flows import colstore
from repro.flows.io import file_sha256
from repro.flows.store import FORMAT_V3, FlowStore, FlowStoreError
from repro.flows.table import COLUMNS
from repro.query import QuerySpec, execute_query, plan_query

START = dt.date(2020, 2, 19)
END = dt.date(2020, 2, 25)


@pytest.fixture(scope="module")
def week_flows(scenario):
    return scenario.isp_ce.generate_flows(START, END, fidelity=0.3)


@pytest.fixture
def store(tmp_path, week_flows):
    store = FlowStore(tmp_path / "store")
    store.write_range(week_flows, START, END)
    return store


def _spec(**kwargs):
    kwargs.setdefault("vantage", "isp-ce")
    kwargs.setdefault("start", START)
    kwargs.setdefault("end", END)
    return QuerySpec.build(**kwargs)


class TestLayout:
    def test_partition_is_directory_of_segments(self, store):
        # Each day is a directory: the sidecar plus one segments file
        # holding every column's parts.
        day_dir = store.root / START.isoformat()
        assert day_dir.is_dir()
        assert (day_dir / colstore.SIDECAR).is_file()
        blob_size = (day_dir / colstore.DATA_FILE).stat().st_size
        sidecar = store.open_partition(START).sidecar
        assert set(sidecar["columns"]) == set(COLUMNS)
        for meta in sidecar["columns"].values():
            for part in meta["parts"].values():
                assert part["offset"] + part["nbytes"] <= blob_size
        assert sidecar["format"] == FORMAT_V3

    def test_write_leaves_no_temp_artifacts(self, store):
        leftovers = [
            p for p in store.root.iterdir()
            if p.name.endswith((".tmp", ".old"))
        ]
        assert leftovers == []

    def test_sidecar_zone_map_bounds_hour(self, store):
        partition = store.open_partition(START)
        day_start = timebase.hour_index(START, 0)
        lo, hi = partition.zone("hour")
        assert day_start <= lo <= hi < day_start + 24

    def test_sidecar_preaggregates_are_exact(self, store):
        partition = store.open_partition(START)
        _, byte_bins, flow_bins = partition.hour_preaggregates()
        day = store.read_day(START)
        assert int(flow_bins.sum()) == len(day)
        assert int(byte_bins.sum()) == day.total_bytes()

    def test_read_day_round_trips(self, store, week_flows):
        # Reading every day back yields the written rows, no more and
        # no fewer, with the schema's dtypes.
        total = 0
        for day in store.days():
            start = timebase.hour_index(day, 0)
            written = week_flows.between_hours(start, start + 24)
            read = store.read_day(day)
            assert len(read) == len(written)
            for name in COLUMNS:
                assert read.column(name).dtype == COLUMNS[name]
                assert np.array_equal(read.column(name), written.column(name))
            total += len(read)
        assert total == len(week_flows)


class TestIntegrity:
    def _flip_byte(self, path):
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))

    def test_corrupt_sidecar_raises(self, store):
        self._flip_byte(store.root / "2020-02-20" / colstore.SIDECAR)
        with pytest.raises(FlowStoreError, match="sidecar.*corrupt"):
            store.read_day(dt.date(2020, 2, 20))

    def _flip_column_part(self, store, day, column):
        sidecar = store.open_partition(day).sidecar
        part = next(iter(sidecar["columns"][column]["parts"].values()))
        path = store.root / day.isoformat() / colstore.DATA_FILE
        payload = bytearray(path.read_bytes())
        payload[part["offset"] + part["nbytes"] // 2] ^= 0xFF
        path.write_bytes(bytes(payload))

    def test_corrupt_column_segment_names_column(self, store):
        self._flip_column_part(store, dt.date(2020, 2, 20), "n_packets")
        with pytest.raises(
            FlowStoreError, match="column 'n_packets'.*corrupt"
        ):
            store.read_day(dt.date(2020, 2, 20))

    def test_missing_column_segment_names_column(self, store):
        # Cut segments.bin just before the last column part: that
        # column's bytes are gone, and the error must say which column.
        day_dir = store.root / "2020-02-20"
        sidecar = json.loads((day_dir / colstore.SIDECAR).read_text())
        name, offset = max(
            (
                (column, part["offset"])
                for column, meta in sidecar["columns"].items()
                for part in meta["parts"].values()
            ),
            key=lambda item: item[1],
        )
        data = day_dir / colstore.DATA_FILE
        data.write_bytes(data.read_bytes()[:offset])
        with pytest.raises(
            FlowStoreError, match=f"column '{name}'.*past the end"
        ):
            store.read_day(dt.date(2020, 2, 20))

    def test_missing_partition_directory_raises(self, store):
        shutil.rmtree(store.root / "2020-02-20")
        with pytest.raises(FlowStoreError, match="missing"):
            store.read_day(dt.date(2020, 2, 20))

    def test_projected_query_skips_unread_corruption(self, store):
        # Corruption in a column the query never touches is invisible
        # to a projected scan: per-part checksums are the point.
        self._flip_column_part(store, dt.date(2020, 2, 20), "src_ip")
        result = execute_query(
            store, _spec(group_by=["dst_port"], aggregates=["packets"])
        )
        assert result.n_failed == 0
        # A full-column read of the same day still catches it.
        with pytest.raises(FlowStoreError, match="src_ip"):
            store.read_day(dt.date(2020, 2, 20))

    def test_corrupt_partition_is_query_failure_not_crash(self, store):
        self._flip_byte(store.root / "2020-02-20" / colstore.SIDECAR)
        result = execute_query(
            store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert result.n_failed == 1
        assert result.partitions_failed[0].day == "2020-02-20"
        assert result.partitions_scanned == 6

    def test_verified_cache_skips_rehashing(self, store):
        colstore.reset_verified_cache()
        obs.configure(telemetry=True)
        try:
            execute_query(
                store, _spec(group_by=["proto"], aggregates=["bytes"])
            )
            first = obs.get_registry().snapshot()["counters"]
            execute_query(
                store,
                _spec(group_by=["proto"], aggregates=["packets"]),
            )
            second = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        # Second query re-verifies the shared proto parts from the
        # cache instead of re-hashing them.
        assert second.get("colstore.verify-cached", 0) > \
            first.get("colstore.verify-cached", 0)


class TestProjection:
    def test_referenced_columns_canonical_order(self):
        spec = _spec(
            where={"hour": {"min": 0, "max": 10}},
            group_by=["transport"], aggregates=["bytes"],
        )
        assert spec.referenced_columns() == (
            "hour", "proto", "src_port", "dst_port", "n_bytes"
        )

    def test_row_count_needs_no_columns(self):
        assert _spec(aggregates=["flows"]).referenced_columns() == ()

    def test_sketch_aggregates_pull_ip_columns(self):
        spec = _spec(aggregates=["distinct_src_ips", "distinct_dst_ips"])
        assert spec.referenced_columns() == ("src_ip", "dst_ip")

    def test_result_reports_projected_io(
        self, store, week_flows, reference_rows
    ):
        spec = _spec(group_by=["proto"], aggregates=["bytes"])
        narrow = execute_query(store, spec)
        projected = sum(
            store.open_partition(day).column_nbytes(("proto", "n_bytes"))
            for day in store.days()
        )
        whole = sum(store.partition_disk_bytes(day) for day in store.days())
        assert narrow.columns_loaded == ("n_bytes", "proto")
        assert narrow.bytes_read == projected
        assert 0 < narrow.bytes_read < whole
        assert narrow.rows == reference_rows(week_flows, spec)

    def test_bundle_guards_unprojected_columns(self, store):
        partition = store.open_partition(START)
        bundle, nbytes = partition.load(("proto", "n_bytes"))
        assert nbytes == partition.column_nbytes(("proto", "n_bytes"))
        with pytest.raises(KeyError, match="not projected"):
            bundle.column("src_ip")

    def test_bundle_derived_keys_match_table(self, store):
        partition = store.open_partition(START)
        bundle, _ = partition.load(("proto", "src_port", "dst_port"))
        table = store.read_day(START)
        for key in ("service_port", "transport"):
            assert np.array_equal(
                bundle.key_array(key), table.key_array(key)
            )


class TestZonePruning:
    def test_impossible_predicate_prunes_every_partition(self, store):
        plan = plan_query(
            store,
            _spec(where={"src_port": {"min": 100000, "max": 200000}}),
        )
        assert plan.days == ()
        assert plan.pruned_by_zone == 7
        assert plan.estimated_bytes == 0

    def test_pruned_and_scanned_stores_agree(
        self, store, week_flows, reference_rows
    ):
        spec = _spec(where={"src_port": {"min": 100000, "max": 200000}})
        assert execute_query(store, spec).rows == \
            reference_rows(week_flows, spec) == []

    def test_plan_estimates_projected_bytes(self, store):
        narrow_spec = _spec(group_by=["proto"], aggregates=["bytes"])
        wide_spec = _spec(
            group_by=["proto"],
            aggregates=["bytes", "packets", "distinct_src_ips",
                        "distinct_dst_ips"],
        )
        narrow = plan_query(store, narrow_spec)
        assert narrow.columns == ("proto", "n_bytes")
        # A narrower projection costs fewer bytes: the estimate counts
        # only the projected columns' encoded parts.
        wide = plan_query(store, wide_spec)
        assert 0 < narrow.estimated_bytes < wide.estimated_bytes


class TestZoneBoundaries:
    def test_predicate_at_exact_zone_edge_stays_planned(self, store):
        # A point predicate sitting exactly on the zone's lower edge
        # (value == lo, and == hi when the day holds a single value)
        # must keep the day planned — pruning is strictly "disjoint".
        partition = store.open_partition(START)
        lo, hi = partition.zone("src_port")
        plan = plan_query(
            store, _spec(where={"src_port": {"min": lo, "max": lo}},
                         start=START, end=START),
        )
        assert plan.days == (START,)
        assert plan.pruned_by_zone == 0
        hi_plan = plan_query(
            store, _spec(where={"src_port": {"min": hi, "max": hi}},
                         start=START, end=START),
        )
        assert hi_plan.days == (START,)

    def test_predicate_one_past_zone_edge_prunes(self, store):
        partition = store.open_partition(START)
        _, hi = partition.zone("src_port")
        plan = plan_query(
            store,
            _spec(where={"src_port": {"min": hi + 1, "max": hi + 10}},
                  start=START, end=START),
        )
        assert plan.pruned_by_zone == 1
        assert plan.days == ()

    def test_empty_partition_pruned_before_zones(self, tmp_path,
                                                 week_flows):
        store = FlowStore(tmp_path / "holes")
        empty = week_flows.filter(np.zeros(len(week_flows), dtype=bool))
        store.write_day(START, empty)
        plan = plan_query(store, _spec(aggregates=["bytes", "flows"]))
        assert plan.pruned_empty == 1
        assert plan.days == ()
        result = execute_query(store, _spec(aggregates=["flows"]))
        assert result.rows == []
        assert result.rows_scanned == 0

    def test_all_days_pruned_matches_unpruned_store(
        self, store, week_flows, reference_rows
    ):
        # The store prunes all seven days without reading a row; the
        # in-memory reference scans every row.  Both must be empty.
        spec = _spec(where={"src_port": {"min": 100000, "max": 200000}},
                     group_by=["proto"], aggregates=["bytes"])
        pruned = execute_query(store, spec)
        assert pruned.rows == reference_rows(week_flows, spec) == []
        assert pruned.rows_matched == 0
        assert pruned.bytes_read == 0


class TestDerivedZones:
    def test_sidecar_records_derived_zones(self, store):
        partition = store.open_partition(START)
        for key in ("service_port", "transport"):
            zone = partition.zone(key)
            assert zone is not None
            lo, hi = zone
            assert 0 <= lo <= hi

    def test_impossible_derived_predicate_prunes(self, store):
        # service ports live below 65536; transport keys encode
        # proto*65536 + service_port, so a band above every generated
        # protocol is impossible and zone-prunes each day.
        for where in (
            {"service_port": {"min": 100000, "max": 200000}},
            {"transport": {"min": 300 * 65536, "max": 400 * 65536}},
        ):
            plan = plan_query(store, _spec(where=where))
            assert plan.pruned_by_zone == 7, where
            assert plan.days == ()

    def test_old_sidecars_without_derived_zones_stay_planned(self, store):
        # Sidecars sealed before derived zones existed lack the
        # derived_zones block; the day must stay planned (and the scan
        # still answers correctly).
        spec = _spec(where={"service_port": {"min": 100000,
                                             "max": 200000}})
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for day in store.days():
            path = store.root / day.isoformat() / colstore.SIDECAR
            sidecar = json.loads(path.read_text())
            sidecar.pop("derived_zones", None)
            path.write_text(json.dumps(sidecar, indent=2, sort_keys=True))
            manifest[day.isoformat()]["sha256"] = file_sha256(path)
        manifest_path.write_text(json.dumps(manifest))
        legacy = FlowStore(store.root)
        assert legacy.open_partition(START).zone("service_port") is None
        plan = plan_query(legacy, spec)
        assert plan.pruned_by_zone == 0
        assert len(plan.days) == 7
        assert execute_query(legacy, spec).rows == []


class TestSidecarFastPath:
    def test_unfiltered_totals_without_row_io(self, store, week_flows):
        result = execute_query(store, _spec(aggregates=["bytes", "flows"]))
        assert result.rows[0]["bytes"] == week_flows.total_bytes()
        assert result.rows[0]["flows"] == len(week_flows)
        assert result.bytes_read == 0
        assert result.columns_loaded == ()
        assert result.rows_scanned == len(week_flows)

    def test_plan_marks_sidecar_days(self, store):
        plan = plan_query(store, _spec(aggregates=["bytes", "flows"]))
        assert plan.sidecar_days == 7
        assert plan.estimated_bytes == 0

    def test_hourly_series_matches_row_scan(
        self, store, week_flows, reference_rows
    ):
        spec = _spec(aggregates=["bytes", "flows"], bucket="hour")
        assert execute_query(store, spec).rows == \
            reference_rows(week_flows, spec)

    def test_hour_window_matches_row_scan(
        self, store, week_flows, reference_rows
    ):
        day_start = timebase.hour_index(dt.date(2020, 2, 21), 0)
        spec = _spec(
            where={"hour": {"min": day_start + 6, "max": day_start + 17}},
            aggregates=["bytes", "flows"], bucket="hour",
        )
        result = execute_query(store, spec)
        reference = reference_rows(week_flows, spec)
        assert result.rows == reference
        assert result.rows_matched == sum(row["flows"] for row in reference)
        assert result.bytes_read == 0
