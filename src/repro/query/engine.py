"""Query planning and execution over partitioned flow stores.

The engine turns one :class:`~repro.query.spec.QuerySpec` into a
:class:`QueryPlan` — the minimal set of :class:`~repro.flows.store.FlowStore`
day partitions that can contribute rows — and executes the plan one
partition at a time, in parallel when given a worker pool.  Each
partition scan pushes the spec's predicates into a single boolean mask,
groups the surviving rows through the table's memoized
:class:`~repro.flows.groupby.GroupIndex` machinery, and produces
*partial aggregates*: exact int64 sums per group plus one HyperLogLog
sketch per distinct-count aggregate.  Partials merge associatively
(integer addition, register-wise sketch union), so the full date range
is never materialized in memory — the resident set is one partition
plus the accumulated group dictionary.

Partition failures are data, not crashes: a partition that raises
:class:`~repro.flows.store.FlowStoreError` (missing file, checksum
mismatch, unreadable archive) is recorded in
:attr:`QueryResult.partitions_failed` and the scan continues.
"""

from __future__ import annotations

import datetime as _dt
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field, replace
from threading import Event
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro import timebase
from repro.flows import colstore, encodings
from repro.flows.groupby import GroupIndex
from repro.flows.hll import HyperLogLog
from repro.flows.store import FlowStore, FlowStoreError
from repro.flows.table import COLUMNS, DERIVED_KEYS, FlowTable
from repro.query.errors import QueryCancelled, QueryTimeout
from repro.query.spec import (
    AGGREGATE_INPUT_COLUMNS,
    EXACT_AGGREGATE_COLUMNS,
    SKETCH_AGGREGATES,
    QuerySpec,
)

#: Group tuple → aggregate name → exact integer value.
Sums = Dict[Tuple[int, ...], Dict[str, int]]

#: Group tuple → aggregate name → HyperLogLog sketch.
Sketches = Dict[Tuple[int, ...], Dict[str, HyperLogLog]]


@dataclass(frozen=True)
class QueryPlan:
    """The partitions one query will touch, after pruning.

    ``days`` are the partitions to scan; ``pruned_out_of_range`` counts
    store partitions outside the query's date range,
    ``pruned_empty`` partitions inside the range whose manifest reports
    zero flows, ``pruned_by_hour`` partitions whose 24-hour window
    cannot intersect an ``hour`` predicate, and ``pruned_by_zone``
    partitions whose sidecar zone map (per-column min/max) proves a
    predicate cannot match any row.  ``missing_days`` are range days
    with no partition at all (informational — a sparse store is not an
    error).

    ``columns`` is the physical projection the scans will load,
    ``sidecar_days`` how many planned days will be answered from
    sidecar pre-aggregates without row I/O, and ``estimated_bytes`` the
    predicted encoded part bytes behind the remaining scans, as the cost
    model estimates them per day.  ``day_strategies`` records, parallel
    to ``days``, the per-partition scan strategy the cost model picked
    (``"sidecar"``, ``"bitmap"``, or ``"scan"``).  A day whose partition
    cannot be opened at plan time stays planned as ``"scan"`` with no
    estimate, so the scan reports it as a partition failure.
    """

    spec: QuerySpec
    days: Tuple[_dt.date, ...]
    missing_days: Tuple[_dt.date, ...]
    pruned_out_of_range: int
    pruned_empty: int
    pruned_by_hour: int
    pruned_by_zone: int = 0
    columns: Tuple[str, ...] = ()
    sidecar_days: int = 0
    estimated_bytes: int = 0
    day_strategies: Tuple[str, ...] = ()

    @property
    def n_pruned(self) -> int:
        """Store partitions skipped without being read."""
        return self.pruned_out_of_range + self.pruned_empty + \
            self.pruned_by_hour + self.pruned_by_zone

    def strategy_counts(self) -> Dict[str, int]:
        """How many planned days use each scan strategy."""
        counts: Dict[str, int] = {}
        for strategy in self.day_strategies:
            counts[strategy] = counts.get(strategy, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (``repro query --explain``)."""
        return {
            "spec": self.spec.describe(),
            "fingerprint": self.spec.fingerprint(),
            "days": [d.isoformat() for d in self.days],
            "missing_days": [d.isoformat() for d in self.missing_days],
            "pruned": {
                "out_of_range": self.pruned_out_of_range,
                "empty": self.pruned_empty,
                "by_hour": self.pruned_by_hour,
                "by_zone": self.pruned_by_zone,
            },
            "columns": list(self.columns),
            "sidecar_days": self.sidecar_days,
            "estimated_bytes": self.estimated_bytes,
            "strategies": self.strategy_counts(),
        }


@dataclass(frozen=True)
class ScanStats:
    """Per-partition scan diagnostics.

    ``mode`` names the I/O strategy taken: ``"mmap"`` (projected
    memory-mapped scan), ``"bitmap"`` (predicate-first scan —
    bitmap/dictionary-code filtering before any row materialization),
    or ``"sidecar"`` (answered from pre-aggregates without touching row
    data).
    """

    rows_scanned: int
    rows_matched: int
    bytes_read: int
    columns: Tuple[str, ...]
    mode: str


@dataclass
class PartitionFailure:
    """One partition the engine could not serve."""

    day: str
    error: str

    def to_dict(self) -> Dict[str, str]:
        return {"day": self.day, "error": self.error}


@dataclass
class QueryResult:
    """The merged outcome of one executed query.

    ``rows`` is a list of dicts carrying the spec's key columns (the
    time bucket first, then group keys) and one entry per aggregate,
    ordered by key.  Distinct-count aggregates are HyperLogLog
    estimates (rounded to int) with relative standard error
    ``hll_error``; all other aggregates are exact int64 sums.
    """

    fingerprint: str
    vantage: str
    key_names: Tuple[str, ...]
    aggregates: Tuple[str, ...]
    rows: List[Dict[str, object]]
    partitions_planned: int
    partitions_scanned: int
    partitions_pruned: int
    partitions_failed: List[PartitionFailure] = field(default_factory=list)
    rows_scanned: int = 0
    rows_matched: int = 0
    bytes_read: int = 0
    columns_loaded: Tuple[str, ...] = ()
    hll_error: float = 0.0
    wall_s: float = 0.0
    from_cache: bool = False
    #: Per-stage wall seconds: ``plan``/``scan``/``merge`` filled by the
    #: engine (``scan`` sums per-partition scan walls, so it can exceed
    #: elapsed time under parallelism), ``queue``/``cache_store``/
    #: ``total`` stamped by the query service.  A cache hit gets a
    #: fresh dict with zeroed execution stages.
    stages: Dict[str, float] = field(default_factory=dict)
    #: Compact plan diagnostics (pruning, projection, sidecar use) —
    #: what ``--explain`` would have reported for this execution.
    plan_summary: Optional[Dict[str, object]] = None

    @property
    def n_failed(self) -> int:
        return len(self.partitions_failed)

    def column(self, name: str) -> List[object]:
        """One key or aggregate column across all rows, in row order."""
        return [row[name] for row in self.rows]

    def hourly(self, aggregate: str, start: int, stop: int) -> np.ndarray:
        """A dense per-hour series for a ``bucket="hour"`` query.

        Hours in ``[start, stop)`` with no matching flows are zero.
        """
        if not self.key_names or self.key_names[0] != "hour":
            raise ValueError("hourly() needs a bucket='hour' query result")
        if len(self.key_names) != 1:
            raise ValueError("hourly() needs a query with no group keys")
        out = np.zeros(stop - start, dtype=np.int64)
        for row in self.rows:
            hour = int(row["hour"])
            if start <= hour < stop:
                out[hour - start] = int(row[aggregate])
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (CLI output, JSONL batch results)."""
        return {
            "fingerprint": self.fingerprint,
            "vantage": self.vantage,
            "key_names": list(self.key_names),
            "aggregates": list(self.aggregates),
            "rows": self.rows,
            "partitions": {
                "planned": self.partitions_planned,
                "scanned": self.partitions_scanned,
                "pruned": self.partitions_pruned,
                "failed": [f.to_dict() for f in self.partitions_failed],
            },
            "rows_scanned": self.rows_scanned,
            "rows_matched": self.rows_matched,
            "bytes_read": self.bytes_read,
            "columns_loaded": list(self.columns_loaded),
            "hll_error": round(self.hll_error, 6),
            "wall_s": round(self.wall_s, 6),
            "from_cache": self.from_cache,
            "stages": {
                name: round(value, 6)
                for name, value in sorted(self.stages.items())
            },
            "plan": self.plan_summary,
        }


def _sidecar_answerable(spec: QuerySpec) -> bool:
    """Whether sidecar pre-aggregates can answer ``spec`` exactly.

    They can when the query needs no per-row state: no group keys, only
    ``bytes``/``flows`` aggregates (both pre-aggregated per hour), and
    only ``hour`` predicates (the pre-aggregate granularity).  Any time
    bucket works — hours are native, day/whole-range are coarser.
    """
    return (
        not spec.group_by
        and all(a in ("bytes", "flows") for a in spec.aggregates)
        and all(p.column == "hour" for p in spec.where)
    )


def _zone_disjoint(partition: colstore.ColumnarPartition,
                   predicate) -> bool:
    """Whether a zone map proves ``predicate`` matches no row."""
    zone = partition.zone(predicate.column)
    if zone is None:
        return False
    lo, hi = zone
    # Both predicate forms keep their values sorted, so the first and
    # last bound the acceptance set.
    return predicate.values[0] > hi or predicate.values[-1] < lo


def _materialize_columns(spec: QuerySpec) -> Tuple[str, ...]:
    """Physical columns a scan needs *after* the filter stage.

    Group keys (derived expanded), the ``hour`` column for hour
    bucketing, and aggregate inputs — but not pure-predicate columns,
    which the predicate-first scan never materializes.
    """
    names = list(spec.group_by)
    if spec.bucket == "hour":
        names.append("hour")
    for aggregate in spec.aggregates:
        column = AGGREGATE_INPUT_COLUMNS[aggregate]
        if column is not None:
            names.append(column)
    base = colstore.required_base_columns(names)
    return tuple(name for name in COLUMNS if name in base)


def _predicate_selectivity(predicate, meta: dict, rows: int) -> float:
    """Estimated match fraction of one predicate on a dict column.

    Exact when the sidecar carries per-value counts (cardinality up to
    ``encodings.STATS_MAX_CARD``); otherwise assumes uniform spread
    over the dictionary; 1.0 when nothing is known.
    """
    values = meta.get("values")
    counts = meta.get("counts")
    if values is not None and counts is not None and rows:
        if predicate.op == "range":
            lo, hi = predicate.values[0], predicate.values[-1]
            matched = sum(
                c for v, c in zip(values, counts) if lo <= v <= hi
            )
        else:
            lookup = dict(zip(values, counts))
            matched = sum(lookup.get(int(v), 0) for v in predicate.values)
        return min(1.0, matched / rows)
    cardinality = int(meta.get("cardinality") or 0)
    if cardinality and predicate.op == "in":
        return min(1.0, len(predicate.values) / cardinality)
    return 1.0


def _partition_strategy(
    partition: colstore.ColumnarPartition, spec: QuerySpec
) -> Tuple[str, int]:
    """Pick bitmap-vs-scan for one partition, with estimated read bytes.

    A pure function of ``(partition sidecar, spec)``: the planner, the
    in-process scan, and every process-pool worker re-derive the same
    choice independently, so no plan context needs shipping.

    The predicate-first path pays for predicate structures up front
    (bitmap rows or dictionary codes, plus a rows/8 mask) and then
    reads only the estimated surviving fraction of the materialized
    columns; the plain scan reads every projected column in full.  The
    smaller estimate wins.

    Being pure also makes the result cacheable: partition handles live
    as long as their manifest sha, so the choice is memoized per spec
    and the planner + scan pair cost one derivation, not two.
    """
    cache = partition.strategy_cache
    cached = cache.get(spec)
    if cached is not None:
        return cached
    choice = _derive_partition_strategy(partition, spec)
    if len(cache) >= 128:
        cache.clear()
    cache[spec] = choice
    return choice


def _derive_partition_strategy(
    partition: colstore.ColumnarPartition, spec: QuerySpec
) -> Tuple[str, int]:
    scan_bytes = partition.column_nbytes(spec.referenced_columns())
    if not spec.where:
        return "scan", scan_bytes
    sidecar = partition.sidecar
    rows = partition.rows
    predicate_bytes = 0
    selectivity = 1.0
    resolvable = 0
    for predicate in spec.where:
        meta = (
            sidecar["columns"].get(predicate.column)
            if predicate.column in COLUMNS else None
        )
        if meta is None or meta.get("encoding") != encodings.DICT:
            continue
        resolvable += 1
        index = (sidecar.get("indexes") or {}).get(predicate.column)
        if index is not None and predicate.op == "in":
            predicate_bytes += int(index["part"]["nbytes"])
        else:
            parts = meta.get("parts") or {}
            codes = parts.get("codes")
            if codes is not None:
                predicate_bytes += int(codes["nbytes"])
        selectivity *= _predicate_selectivity(predicate, meta, rows)
    if not resolvable:
        return "scan", scan_bytes
    materialize_bytes = partition.column_nbytes(_materialize_columns(spec))
    bitmap_bytes = int(
        predicate_bytes + rows // 8 + selectivity * materialize_bytes
    )
    if bitmap_bytes < scan_bytes:
        return "bitmap", bitmap_bytes
    return "scan", scan_bytes


def plan_query(store: FlowStore, spec: QuerySpec) -> QueryPlan:
    """Choose the partitions to scan, with data skipping.

    Manifest-only pruning drops out-of-range, empty, and hour-disjoint
    partitions without opening anything.  The sidecar zone map then
    drops days whose per-column min/max cannot satisfy a predicate — a
    sidecar read, but never row data.  A partition that cannot be opened
    here (failed verification, another format) is *not* treated as
    prunable; the day stays planned so the scan reports it as a
    partition failure.
    """
    hour_windows: List[Tuple[int, int]] = []
    for predicate in spec.where:
        if predicate.column != "hour":
            continue
        if predicate.op == "range":
            hour_windows.append((predicate.values[0], predicate.values[1]))
        else:
            hour_windows.append(
                (predicate.values[0], predicate.values[-1])
            )
    # Physical columns carry zone maps in every sidecar; derived keys
    # (service_port, transport) use the seal-time derived_zones block,
    # absent from old sidecars — partition.zone() then returns None and
    # the day simply stays planned.
    zone_predicates = [
        p for p in spec.where
        if p.column in COLUMNS or p.column in DERIVED_KEYS
    ]
    sidecar_ok = _sidecar_answerable(spec)
    days: List[_dt.date] = []
    pruned_out_of_range = 0
    pruned_empty = 0
    pruned_by_hour = 0
    pruned_by_zone = 0
    sidecar_days = 0
    estimated_bytes = 0
    day_strategies: List[str] = []
    present = set()
    for day in store.days():
        present.add(day)
        if not spec.start <= day <= spec.end:
            pruned_out_of_range += 1
            continue
        if store.day_flows(day) == 0:
            pruned_empty += 1
            continue
        day_start = timebase.hour_index(day, 0)
        day_stop = day_start + 24
        if any(hi < day_start or lo >= day_stop for lo, hi in hour_windows):
            pruned_by_hour += 1
            continue
        try:
            partition = store.open_partition(day)
        except FlowStoreError:
            partition = None
        if partition is not None and any(
            _zone_disjoint(partition, p) for p in zone_predicates
        ):
            pruned_by_zone += 1
            continue
        days.append(day)
        if partition is None:
            day_strategies.append("scan")
        elif sidecar_ok:
            sidecar_days += 1
            day_strategies.append("sidecar")
        else:
            strategy, day_bytes = _partition_strategy(partition, spec)
            estimated_bytes += day_bytes
            day_strategies.append(strategy)
    missing = tuple(
        day
        for day in timebase.iter_days(spec.start, spec.end)
        if day not in present
    )
    return QueryPlan(
        spec=spec,
        days=tuple(days),
        missing_days=missing,
        pruned_out_of_range=pruned_out_of_range,
        pruned_empty=pruned_empty,
        pruned_by_hour=pruned_by_hour,
        pruned_by_zone=pruned_by_zone,
        columns=spec.referenced_columns(),
        sidecar_days=sidecar_days,
        estimated_bytes=estimated_bytes,
        day_strategies=tuple(day_strategies),
    )


def _plan_summary(plan: QueryPlan) -> Dict[str, object]:
    """The plan condensed for result diagnostics and slow-query logs."""
    return {
        "partitions": len(plan.days),
        "pruned": {
            "out_of_range": plan.pruned_out_of_range,
            "empty": plan.pruned_empty,
            "by_hour": plan.pruned_by_hour,
            "by_zone": plan.pruned_by_zone,
        },
        "missing_days": len(plan.missing_days),
        "columns": list(plan.columns),
        "sidecar_days": plan.sidecar_days,
        "estimated_bytes": plan.estimated_bytes,
        "strategies": plan.strategy_counts(),
    }


# -- partition scans ---------------------------------------------------------


def _predicate_mask(table: FlowTable, spec: QuerySpec) -> np.ndarray:
    """One boolean row mask combining every pushed-down predicate."""
    mask = np.ones(len(table), dtype=bool)
    for predicate in spec.where:
        keys = table.key_array(predicate.column)
        if predicate.op == "range":
            lo, hi = predicate.values
            mask &= (keys >= lo) & (keys <= hi)
        elif len(predicate.values) == 1:
            mask &= keys == predicate.values[0]
        else:
            mask &= np.isin(keys, np.asarray(predicate.values))
        if not mask.any():
            break
    return mask


def _group_layout(
    table: FlowTable, keys: Sequence[str]
) -> Tuple[GroupIndex, List[np.ndarray]]:
    """A combined :class:`GroupIndex` over ``keys`` plus decoded values.

    Mixed-radix composition of the per-key code arrays (never tuple
    keys); the returned list holds, per key, the actual key value of
    each combined group.
    """
    indexes = [table.group_index(key) for key in keys]
    combined = indexes[0].codes
    radices: List[int] = []
    for index in indexes[1:]:
        radix = max(index.n_groups, 1)
        combined = combined * radix + index.codes
        radices.append(radix)
    layout = GroupIndex.from_values(combined)
    codes = layout.values.copy()
    decoded_rev: List[np.ndarray] = []
    for index, radix in zip(reversed(indexes[1:]), reversed(radices)):
        decoded_rev.append(index.values[(codes % radix).astype(np.intp)])
        codes //= radix
    decoded_rev.append(indexes[0].values[codes.astype(np.intp)])
    return layout, list(reversed(decoded_rev))


def _scan_sidecar(
    partition: colstore.ColumnarPartition, day: _dt.date, spec: QuerySpec
) -> Tuple[Sums, Sketches, ScanStats]:
    """Answer one partition from sidecar pre-aggregates (no row I/O).

    Only reached for specs :func:`_sidecar_answerable` accepts.  The
    pre-aggregates are exact int64 totals computed at write time by the
    same grouping machinery the row scan uses, so the emitted groups
    and values — and the ``rows_scanned``/``rows_matched`` diagnostics
    — are bit-identical to a full scan's.
    """
    day_start, byte_bins, flow_bins = partition.hour_preaggregates()
    hours = day_start + np.arange(len(flow_bins), dtype=np.int64)
    mask = np.ones(len(flow_bins), dtype=bool)
    for predicate in spec.where:
        if predicate.op == "range":
            lo, hi = predicate.values
            mask &= (hours >= lo) & (hours <= hi)
        elif len(predicate.values) == 1:
            mask &= hours == predicate.values[0]
        else:
            mask &= np.isin(hours, np.asarray(predicate.values))
    rows_matched = int(flow_bins[mask].sum())
    obs.counter("query.sidecar-served").inc()
    stats = ScanStats(
        rows_scanned=partition.rows,
        rows_matched=rows_matched,
        bytes_read=0,
        columns=(),
        mode="sidecar",
    )
    sums: Sums = {}
    if rows_matched == 0:
        return sums, {}, stats

    def _values(n_bytes: int, n_flows: int) -> Dict[str, int]:
        return {
            aggregate: n_bytes if aggregate == "bytes" else n_flows
            for aggregate in spec.aggregates
        }

    if spec.bucket == "hour":
        # A row scan only materializes groups with matching rows, so
        # emit only hours that actually saw flows.
        for idx in np.nonzero(mask & (flow_bins > 0))[0]:
            sums[(int(hours[idx]),)] = _values(
                int(byte_bins[idx]), int(flow_bins[idx])
            )
    else:
        group = (day.toordinal(),) if spec.bucket == "day" else ()
        sums[group] = _values(int(byte_bins[mask].sum()), rows_matched)
    return sums, {}, stats


def scan_partition(
    store: FlowStore, day: _dt.date, spec: QuerySpec
) -> Tuple[Sums, Sketches, ScanStats]:
    """Scan one partition into partial aggregates.

    Returns ``(sums, sketches, stats)``.  Group tuples carry the bucket
    value first (absolute hour index, or the day's ordinal for day
    bucketing), then the group-by key values.

    The partition is answered from sidecar pre-aggregates when
    possible; otherwise the cost model (:func:`_partition_strategy`)
    picks between the predicate-first scan — bitmap/dictionary-code
    filtering, then gathering only the surviving rows — and a
    memory-mapped projection of :meth:`QuerySpec.referenced_columns`
    filtered through a row mask.  All strategies produce identical
    partials.
    """
    partition = store.open_partition(day)
    if _sidecar_answerable(spec):
        return _scan_sidecar(partition, day, spec)
    strategy, _ = _partition_strategy(partition, spec)
    rows_scanned = partition.rows
    if strategy == "bitmap":
        columns = _materialize_columns(spec)
        table, bytes_read = partition.load_filtered(spec.where, columns)
        mode = "bitmap"
        obs.counter("query.bitmap-scans").inc()
    else:
        columns = spec.referenced_columns()
        table, bytes_read = partition.load(columns)
        mode = "mmap"
        if spec.where:
            table = table.filter(_predicate_mask(table, spec))
    rows_matched = len(table)

    def _stats() -> ScanStats:
        return ScanStats(
            rows_scanned=rows_scanned,
            rows_matched=rows_matched,
            bytes_read=bytes_read,
            columns=columns,
            mode=mode,
        )

    sums: Sums = {}
    sketches: Sketches = {}
    if rows_matched == 0:
        return sums, sketches, _stats()
    day_ordinal = day.toordinal()
    keys: List[str] = []
    if spec.bucket == "hour":
        keys.append("hour")
    keys.extend(spec.group_by)
    if keys:
        layout, decoded = _group_layout(table, keys)
    else:
        # One group covering the whole partition.
        layout = GroupIndex.from_values(
            np.zeros(rows_matched, dtype=np.int64)
        )
        decoded = []
    exact_sums: Dict[str, np.ndarray] = {}
    for aggregate in spec.aggregates:
        if aggregate == "flows":
            exact_sums[aggregate] = layout.counts()
        elif aggregate in EXACT_AGGREGATE_COLUMNS:
            exact_sums[aggregate] = layout.sum(
                table.column(EXACT_AGGREGATE_COLUMNS[aggregate])
            )
    # Every group's sketch in one hash-and-fold pass per column.
    group_sketches = {
        aggregate: HyperLogLog.per_group(
            table.column(
                "src_ip" if aggregate == "distinct_src_ips" else "dst_ip"
            ),
            layout.codes, layout.n_groups, p=spec.hll_p,
        )
        for aggregate in spec.aggregates
        if aggregate in SKETCH_AGGREGATES
    }
    for g in range(layout.n_groups):
        group: Tuple[int, ...] = tuple(
            int(values[g]) for values in decoded
        )
        if spec.bucket == "day":
            group = (day_ordinal,) + group
        sums[group] = {
            aggregate: int(values[g])
            for aggregate, values in exact_sums.items()
        }
        if group_sketches:
            sketches[group] = {
                aggregate: per_group[g]
                for aggregate, per_group in group_sketches.items()
            }
    return sums, sketches, _stats()


def _merge_partial(
    total_sums: Sums,
    total_sketches: Sketches,
    sums: Sums,
    sketches: Sketches,
) -> None:
    """Fold one partition's partials into the accumulators (in place)."""
    for group, values in sums.items():
        accumulator = total_sums.setdefault(group, {})
        for aggregate, value in values.items():
            accumulator[aggregate] = accumulator.get(aggregate, 0) + value
    for group, group_sketches in sketches.items():
        accumulator_sketches = total_sketches.setdefault(group, {})
        for aggregate, sketch in group_sketches.items():
            existing = accumulator_sketches.get(aggregate)
            if existing is None:
                accumulator_sketches[aggregate] = sketch
            else:
                existing.union_update(sketch)


def _finalize(
    spec: QuerySpec,
    plan: QueryPlan,
    total_sums: Sums,
    total_sketches: Sketches,
    failures: List[PartitionFailure],
    scanned: int,
    rows_scanned: int,
    rows_matched: int,
    bytes_read: int,
    columns_loaded: Tuple[str, ...],
    t0: float,
) -> QueryResult:
    """Assemble sorted result rows from the merged accumulators."""
    key_names = spec.key_names
    rows: List[Dict[str, object]] = []
    for group in sorted(set(total_sums) | set(total_sketches)):
        row: Dict[str, object] = {}
        for name, value in zip(key_names, group):
            if name == "day":
                row[name] = _dt.date.fromordinal(value).isoformat()
            else:
                row[name] = value
        values = total_sums.get(group, {})
        group_sketches = total_sketches.get(group, {})
        for aggregate in spec.aggregates:
            if aggregate in SKETCH_AGGREGATES:
                sketch = group_sketches.get(aggregate)
                row[aggregate] = (
                    int(round(sketch.count())) if sketch is not None else 0
                )
            else:
                row[aggregate] = values.get(aggregate, 0)
        rows.append(row)
    uses_sketches = any(a in SKETCH_AGGREGATES for a in spec.aggregates)
    return QueryResult(
        fingerprint=spec.fingerprint(),
        vantage=spec.vantage,
        key_names=key_names,
        aggregates=spec.aggregates,
        rows=rows,
        partitions_planned=len(plan.days),
        partitions_scanned=scanned,
        partitions_pruned=plan.n_pruned,
        partitions_failed=failures,
        rows_scanned=rows_scanned,
        rows_matched=rows_matched,
        bytes_read=bytes_read,
        columns_loaded=columns_loaded,
        hll_error=(
            HyperLogLog(p=spec.hll_p).relative_error()
            if uses_sketches else 0.0
        ),
        wall_s=time.perf_counter() - t0,
    )


def _timed_scan(
    store: FlowStore, day: _dt.date, spec: QuerySpec
) -> Tuple[Tuple[Sums, Sketches, ScanStats], float]:
    """One partition scan plus its wall time (for stage accounting)."""
    t0 = time.perf_counter()
    outcome = scan_partition(store, day, spec)
    return outcome, time.perf_counter() - t0


def execute_plan(
    store: FlowStore,
    plan: QueryPlan,
    pool: Optional[object] = None,
    deadline: Optional[float] = None,
    cancel: Optional[Event] = None,
    plan_s: float = 0.0,
) -> QueryResult:
    """Run a plan, merging per-partition partials as they complete.

    ``pool`` scans partitions concurrently.  A plain executor runs one
    partition per task (each worker handles whole partitions, so
    partials stay thread-local until the single-threaded merge); a
    :class:`repro.query.procpool.ScanPool` — anything exposing
    ``submit_shard`` — takes the scatter-gather path instead: the
    plan's days are split into contiguous shards, each shard is
    scanned and pre-merged inside a worker (a separate process when
    the platform allows), and only the compact merged partials cross
    back for the final fold.  ``deadline`` is a ``time.monotonic()``
    timestamp enforced between partitions — on expiry pending scans
    are cancelled and :class:`QueryTimeout` is raised.  ``cancel``
    aborts the same way with :class:`QueryCancelled`.

    ``plan_s`` is the planning wall time measured by the caller (zero
    when the plan was built out of band); it flows into the result's
    ``stages`` breakdown together with the per-partition scan walls
    (``scan``), the accumulated partial-merge plus finalize wall
    (``merge``), and stage timers on the registry.  The per-query span
    carries ``scan``/``merge`` child spans, so a traced run shows one
    tree per query.
    """
    spec = plan.spec
    t0 = time.perf_counter()
    registry = obs.get_registry()
    total_sums: Sums = {}
    total_sketches: Sketches = {}
    failures: List[PartitionFailure] = []
    scanned = 0
    rows_scanned = 0
    rows_matched = 0
    bytes_read = 0
    scan_s = 0.0
    merge_s = 0.0
    columns_loaded: set = set()

    def _check_interrupts() -> None:
        if cancel is not None and cancel.is_set():
            raise QueryCancelled(f"query {spec.describe()} cancelled")
        if deadline is not None and time.monotonic() > deadline:
            raise QueryTimeout(
                f"query {spec.describe()} exceeded its deadline after "
                f"{scanned}/{len(plan.days)} partitions"
            )

    def _absorb(day: _dt.date, outcome, error: Optional[str]) -> None:
        nonlocal scanned, rows_scanned, rows_matched, bytes_read, merge_s
        if error is not None:
            failures.append(PartitionFailure(day.isoformat(), error))
            registry.counter("query.partitions-failed").inc()
            return
        sums, sketches, stats = outcome
        t_merge = time.perf_counter()
        _merge_partial(total_sums, total_sketches, sums, sketches)
        merge_s += time.perf_counter() - t_merge
        scanned += 1
        rows_scanned += stats.rows_scanned
        rows_matched += stats.rows_matched
        bytes_read += stats.bytes_read
        columns_loaded.update(stats.columns)
        registry.counter("query.partitions-scanned").inc()

    def _absorb_shard(outcome) -> None:
        nonlocal scanned, rows_scanned, rows_matched, bytes_read
        nonlocal merge_s, scan_s
        t_merge = time.perf_counter()
        _merge_partial(
            total_sums, total_sketches, outcome.sums, outcome.sketches
        )
        merge_s += time.perf_counter() - t_merge
        scanned += outcome.n_scanned
        rows_scanned += outcome.rows_scanned
        rows_matched += outcome.rows_matched
        bytes_read += outcome.bytes_read
        scan_s += outcome.scan_s
        columns_loaded.update(outcome.columns)
        for day_iso, error in outcome.failures:
            failures.append(PartitionFailure(day_iso, error))
            registry.counter("query.partitions-failed").inc()
        if outcome.n_scanned:
            registry.counter(
                "query.partitions-scanned"
            ).inc(outcome.n_scanned)
        pool.note_outcome(outcome)

    def _run_sharded() -> None:
        """Scatter contiguous day shards across the pool's workers."""
        from repro.query import procpool

        shards = procpool.shard_days(plan.days, getattr(pool, "width", 1))
        futures = {
            pool.submit_shard(store, shard, spec): shard
            for shard in shards
        }
        pending = set(futures)
        try:
            while pending:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                done, pending = wait(
                    pending, timeout=remaining,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    raise QueryTimeout(
                        f"query {spec.describe()} exceeded its deadline "
                        f"after {scanned}/{len(plan.days)} partitions"
                    )
                for future in done:
                    shard = futures[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        # A worker that died (or a payload that failed
                        # to cross the pipe) fails its shard's days as
                        # partition failures, like any unreadable
                        # partition.
                        for day in shard:
                            _absorb(
                                day, None,
                                f"{type(exc).__name__}: {exc}",
                            )
                    else:
                        _absorb_shard(outcome)
                if cancel is not None and cancel.is_set():
                    raise QueryCancelled(
                        f"query {spec.describe()} cancelled"
                    )
        finally:
            for future in pending:
                future.cancel()

    with obs.span(f"query/{spec.describe()}") as span:
        with obs.span("scan") as scan_span:
            if pool is None or len(plan.days) <= 1:
                for day in plan.days:
                    _check_interrupts()
                    try:
                        outcome, scan_dt = _timed_scan(store, day, spec)
                    except FlowStoreError as exc:
                        _absorb(day, None, str(exc))
                    else:
                        scan_s += scan_dt
                        _absorb(day, outcome, None)
            elif hasattr(pool, "submit_shard"):
                _run_sharded()
            else:
                futures = {
                    pool.submit(_timed_scan, store, day, spec): day
                    for day in plan.days
                }
                pending = set(futures)
                try:
                    while pending:
                        remaining = None
                        if deadline is not None:
                            remaining = max(
                                0.0, deadline - time.monotonic()
                            )
                        done, pending = wait(
                            pending, timeout=remaining,
                            return_when=FIRST_COMPLETED,
                        )
                        if not done:
                            raise QueryTimeout(
                                f"query {spec.describe()} exceeded its "
                                f"deadline after {scanned}/"
                                f"{len(plan.days)} partitions"
                            )
                        for future in done:
                            day = futures[future]
                            try:
                                outcome, scan_dt = future.result()
                            except FlowStoreError as exc:
                                _absorb(day, None, str(exc))
                            else:
                                scan_s += scan_dt
                                _absorb(day, outcome, None)
                        if cancel is not None and cancel.is_set():
                            raise QueryCancelled(
                                f"query {spec.describe()} cancelled"
                            )
                finally:
                    for future in pending:
                        future.cancel()
            scan_span.set_metric("partitions", scanned)
            scan_span.set_metric("scan_ms", round(scan_s * 1e3, 3))
        registry.counter("query.rows-scanned").inc(rows_scanned)
        registry.counter("query.rows-matched").inc(rows_matched)
        registry.counter("query.partitions-pruned").inc(plan.n_pruned)
        registry.counter("query.bytes-read").inc(bytes_read)
        registry.counter("query.columns-loaded").inc(len(columns_loaded))
        with obs.span("merge") as merge_span:
            t_finalize = time.perf_counter()
            result = _finalize(
                spec, plan, total_sums, total_sketches, failures,
                scanned, rows_scanned, rows_matched, bytes_read,
                tuple(sorted(columns_loaded)), t0,
            )
            merge_s += time.perf_counter() - t_finalize
            merge_span.set_metric("merge_ms", round(merge_s * 1e3, 3))
        result.stages.update({
            "plan": plan_s,
            "scan": scan_s,
            "merge": merge_s,
            "total": plan_s + result.wall_s,
        })
        result.plan_summary = _plan_summary(plan)
        if registry.enabled:
            registry.timer("query.stage-plan").record(plan_s)
            registry.timer("query.stage-scan").record(scan_s)
            registry.timer("query.stage-merge").record(merge_s)
        span.set_metric("partitions", scanned)
        span.set_metric("failed", len(failures))
        span.set_metric("rows", rows_matched)
        span.set_metric("groups", len(result.rows))
        span.set_metric("bytes_read", bytes_read)
        span.set_metric("plan_ms", round(plan_s * 1e3, 3))
    return result


def execute_query(
    store: FlowStore,
    spec: QuerySpec,
    pool: Optional[object] = None,
    deadline: Optional[float] = None,
    cancel: Optional[Event] = None,
) -> QueryResult:
    """Plan and execute ``spec`` against ``store`` in one call.

    ``pool`` may be a plain executor (per-partition thread scans) or a
    :class:`repro.query.procpool.ScanPool` (sharded scatter-gather,
    process-backed when available); ``None`` scans serially.  All
    three produce bit-identical results.
    """
    t0 = time.perf_counter()
    plan = plan_query(store, spec)
    plan_s = time.perf_counter() - t0
    return execute_plan(
        store, plan, pool=pool, deadline=deadline, cancel=cancel,
        plan_s=plan_s,
    )


def cached_copy(result: QueryResult) -> QueryResult:
    """A cache-hit view of ``result`` (shared rows, flagged).

    The copy gets a *fresh* ``stages`` dict — the service stamps the
    hit's own queue/total timings onto it, which must never leak into
    the cached original (or into other hits).
    """
    return replace(result, from_cache=True, stages={})
