"""Partitioned on-disk flow store.

Vantage-point captures span months (the EDU capture alone is 71 days);
analyses usually touch a handful of named weeks.  ``FlowStore`` keeps a
directory of per-day partitions plus a JSON manifest, so date-range
queries load only the partitions they need.

Every partition is one directory per day holding a single
``segments.bin`` of per-column *encoded* parts (dictionary /
delta+bit-pack / raw) plus bitmap indexes, described by a JSON sidecar
(see :mod:`repro.flows.colstore`).  Reads map only the columns a query
references, and scans can evaluate predicates on dictionary codes or
bitmap rows before materializing any row data.

Writes are append-only at day granularity; re-writing a day replaces
its partition atomically (write to a temp name, then rename).  The
manifest is committed once per :meth:`FlowStore.write_day` or
:meth:`FlowStore.write_range` call.

Every partition's manifest entry records ``"format": 3`` and the
SHA-256 of its sidecar, which in turn records a hash per encoded part.
Reads verify the chain, so a truncated or corrupted partition raises a
:class:`FlowStoreError` instead of surfacing as a numpy internal error
(or, worse, as silently wrong data); the query planner turns that into
a per-partition failure rather than a crashed query.  A manifest entry
in any older format (v1 ``.npz`` archives, v2 per-column ``.npy``
segments) is rejected the same way, naming the format: such stores are
regenerated from their scenario, not converted.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import hashlib
import json
import os
import shutil
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro import timebase
from repro.flows import colstore
from repro.flows.colstore import FORMAT_V3, FlowStoreError
from repro.flows.table import COLUMNS, FlowTable

__all__ = [
    "FORMAT_V3",
    "FlowStore",
    "FlowStoreError",
    "open_cached",
]

PathLike = Union[str, Path]

_MANIFEST = "manifest.json"


class FlowStore:
    """A date-partitioned flow archive under one directory."""

    def __init__(self, root: PathLike):
        """Open (or create) a store."""
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._manifest: Dict[str, Dict[str, object]] = {}
        self._partitions: Dict[tuple, colstore.ColumnarPartition] = {}
        self._commit_depth = 0
        manifest_path = self._root / _MANIFEST
        if manifest_path.exists():
            with manifest_path.open() as handle:
                self._manifest = json.load(handle)

    # -- helpers ------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The store's directory."""
        return self._root

    def state_token(self) -> str:
        """Hex digest identifying the store's current contents.

        Derived from the manifest (day set, flow/byte totals, formats,
        and the per-partition checksums), so any write, delete, or
        re-write changes it.  The query service keys its
        result cache on ``(query fingerprint, state token)`` — a
        mutated store can never serve stale cached results.
        """
        payload = json.dumps(self._manifest, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _partition_dir(self, day: _dt.date) -> Path:
        return self._root / day.isoformat()

    def _save_manifest(self) -> None:
        temp = self._root / (_MANIFEST + ".tmp")
        with temp.open("w") as handle:
            json.dump(self._manifest, handle, indent=2, sort_keys=True)
        os.replace(temp, self._root / _MANIFEST)

    @contextlib.contextmanager
    def _manifest_commit(self) -> Iterator[None]:
        """Write the manifest once, when the outermost block exits.

        Every manifest change runs inside one of these blocks.
        :meth:`write_range` wraps its whole loop in one, so the per-day
        blocks nested inside it commit nothing and the manifest is
        written once per call instead of once per day.
        The commit also runs when the block raises, so the days sealed
        before the error are recorded.
        """
        self._commit_depth += 1
        try:
            yield
        finally:
            self._commit_depth -= 1
            if self._commit_depth == 0:
                self._save_manifest()

    def _invalidate(self, key: str) -> None:
        """Drop cached partition handles for one rewritten/deleted day."""
        for cache_key in [k for k in self._partitions if k[0] == key]:
            del self._partitions[cache_key]

    # -- inventory ------------------------------------------------------------

    def days(self) -> List[_dt.date]:
        """Days with a stored partition, ascending."""
        return sorted(_dt.date.fromisoformat(k) for k in self._manifest)

    def __contains__(self, day: _dt.date) -> bool:
        return day.isoformat() in self._manifest

    def __len__(self) -> int:
        return len(self._manifest)

    def day_flows(self, day: _dt.date) -> int:
        """Flow records in one day's partition (from the manifest)."""
        entry = self._manifest.get(day.isoformat())
        if entry is None:
            raise KeyError(f"no partition for {day}")
        return int(entry["flows"])

    def partition_disk_bytes(self, day: _dt.date) -> int:
        """Encoded part bytes behind one partition (size estimates).

        Zero when the partition cannot be inspected — estimation must
        never fail a query that the scan itself could still serve.
        """
        try:
            partition = self.open_partition(day)
        except FlowStoreError:
            return 0
        return partition.column_nbytes(tuple(COLUMNS))

    def column_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-column storage stats aggregated over all partitions.

        Maps column name to summed raw vs. stored bytes, the set of
        encodings chosen across partitions, the largest dictionary
        cardinality seen, and total bitmap-index bytes.  Partitions
        that cannot be opened are skipped.  Backs ``repro store stats``.
        """
        totals: Dict[str, Dict[str, object]] = {}
        for day in self.days():
            try:
                partition = self.open_partition(day)
            except FlowStoreError:
                continue
            for name, stat in partition.encoding_stats().items():
                entry = totals.setdefault(name, {
                    "raw_nbytes": 0,
                    "stored_nbytes": 0,
                    "index_nbytes": 0,
                    "encodings": set(),
                    "max_cardinality": None,
                })
                entry["raw_nbytes"] += int(stat["raw_nbytes"])
                entry["stored_nbytes"] += int(stat["stored_nbytes"])
                entry["index_nbytes"] += int(stat.get("index_nbytes", 0))
                entry["encodings"].add(str(stat["encoding"]))
                card = stat.get("cardinality")
                if card is not None:
                    prev = entry["max_cardinality"]
                    entry["max_cardinality"] = (
                        int(card) if prev is None else max(prev, int(card))
                    )
        for entry in totals.values():
            entry["encodings"] = sorted(entry["encodings"])
        return totals

    def total_flows(self) -> int:
        """Flow records across all partitions (from the manifest)."""
        return sum(int(e["flows"]) for e in self._manifest.values())

    def total_bytes(self) -> int:
        """Traffic bytes across all partitions (from the manifest)."""
        return sum(int(e["bytes"]) for e in self._manifest.values())

    # -- writes -----------------------------------------------------------------

    def write_day(self, day: _dt.date, flows: FlowTable) -> None:
        """Store one day's flows, replacing any existing partition.

        Every flow must fall inside ``day``'s 24 hourly bins; mixing
        days in one partition would silently corrupt range queries.
        """
        start = timebase.hour_index(day, 0)
        hours = flows.column("hour")
        if len(flows) and (
            int(hours.min()) < start or int(hours.max()) >= start + 24
        ):
            raise ValueError(
                f"flows outside {day} cannot go into its partition"
            )
        key = day.isoformat()
        _, sidecar_sha = colstore.write_partition(
            flows, self._partition_dir(day), start
        )
        entry: Dict[str, object] = {
            "flows": len(flows),
            "bytes": flows.total_bytes(),
            "sha256": sidecar_sha,
            "format": FORMAT_V3,
        }
        with self._manifest_commit():
            self._manifest[key] = entry
            self._invalidate(key)

    def write_range(
        self, flows: FlowTable, start_day: _dt.date, end_day: _dt.date,
    ) -> int:
        """Partition a multi-day table into daily partitions.

        Returns the number of partitions written.  Days inside the
        range with no flows get an empty partition, making subsequent
        coverage checks unambiguous.

        The manifest is committed once, after the last day is sealed.
        A crash before that commit leaves the previous manifest in
        place: it still lists exactly the days it listed before, and the
        partitions sealed for new days are orphans on disk that no read
        sees.  A day that already existed and was re-sealed before the
        crash no longer matches its old manifest checksum, so reading
        it raises :class:`FlowStoreError` rather than returning either
        version.
        """
        if end_day < start_day:
            raise ValueError("end_day precedes start_day")
        # Each row's day within the range; rows outside it fall before
        # index 0 or after the last day and are never written.  A stable
        # sort keeps every day's rows in table order, so each day is one
        # contiguous slice equal to the rows a per-day mask selects.
        row_day = (
            flows.column("hour") - timebase.hour_index(start_day, 0)
        ) // 24
        columns = flows.columns
        if np.any(row_day[1:] < row_day[:-1]):
            order = np.argsort(row_day, kind="stable")
            row_day = row_day[order]
            columns = {name: col[order] for name, col in columns.items()}
        n_days = (end_day - start_day).days + 1
        bounds = np.searchsorted(row_day, np.arange(n_days + 1)).tolist()
        with self._manifest_commit():
            for i, day in enumerate(timebase.iter_days(start_day, end_day)):
                lo, hi = bounds[i], bounds[i + 1]
                day_flows = FlowTable(
                    {name: col[lo:hi] for name, col in columns.items()}
                )
                self.write_day(day, day_flows)
        return n_days

    def delete_day(self, day: _dt.date) -> None:
        """Remove a day's partition; missing days are a no-op."""
        key = day.isoformat()
        if key not in self._manifest:
            return
        directory = self._partition_dir(day)
        if directory.exists():
            shutil.rmtree(directory)
        with self._manifest_commit():
            del self._manifest[key]
            self._invalidate(key)

    # -- reads ---------------------------------------------------------------------

    def _entry(self, day: _dt.date) -> Dict[str, object]:
        if day not in self:
            raise KeyError(f"no partition for {day}")
        return self._manifest[day.isoformat()]

    def open_partition(self, day: _dt.date) -> colstore.ColumnarPartition:
        """A :class:`~repro.flows.colstore.ColumnarPartition` handle.

        The sidecar is verified against the manifest hash and the
        *handle* is cached per ``(day, sha)``, so repeated queries pay
        one JSON parse and keep one ``segments.bin`` mapping open
        instead of re-mmapping per scan.  Rewriting a day changes its
        manifest sha, which drops the stale handle.  An entry in any
        format but v3 raises :class:`FlowStoreError` naming it.
        """
        entry = self._entry(day)
        key = day.isoformat()
        if entry.get("format") != FORMAT_V3:
            raise colstore.unsupported_format(
                f"partition {key}", entry.get("format")
            )
        cache_key = (key, entry.get("sha256"))
        partition = self._partitions.get(cache_key)
        if partition is None:
            directory = self._partition_dir(day)
            if not directory.exists():
                raise FlowStoreError(
                    f"partition directory for {day} is missing from "
                    f"{self._root}"
                )
            sidecar = colstore.read_sidecar(
                directory,
                str(entry["sha256"]) if entry.get("sha256") else None,
                f"partition {key}",
            )
            if int(sidecar["rows"]) != int(entry["flows"]):
                raise FlowStoreError(
                    f"partition for {day} is corrupt: sidecar reports "
                    f"{sidecar['rows']} rows, manifest {entry['flows']}"
                )
            partition = colstore.ColumnarPartition(key, directory, sidecar)
            self._partitions[cache_key] = partition
        return partition

    def read_day(self, day: _dt.date) -> FlowTable:
        """Load one day's partition, verifying its content checksums.

        Raises ``KeyError`` if the day has no manifest entry and
        :class:`FlowStoreError` if the partition is missing, fails a
        checksum, cannot be parsed, or is in another format.  Columns
        are memory-mapped where their encoding allows it; every column
        is verified.
        """
        return self.open_partition(day).table(mmap=True)

    def read_range(
        self, start_day: _dt.date, end_day: _dt.date,
        require_complete: bool = False,
    ) -> FlowTable:
        """Load all partitions in a date range (inclusive).

        Missing days are skipped unless ``require_complete`` is set.
        """
        if end_day < start_day:
            raise ValueError("end_day precedes start_day")
        tables = []
        for day in timebase.iter_days(start_day, end_day):
            if day in self:
                tables.append(self.read_day(day))
            elif require_complete:
                raise KeyError(f"missing partition for {day}")
        return FlowTable.concat(tables)

    def read_week(self, week: timebase.Week,
                  require_complete: bool = True) -> FlowTable:
        """Load one named analysis week."""
        return self.read_range(week.start, week.end, require_complete)

    def iter_days(self) -> Iterator[tuple]:
        """Yield (day, flows) over all partitions in date order.

        Streams one partition at a time — pair with
        :class:`repro.core.streaming.StreamingAggregator` for traces
        larger than memory.
        """
        for day in self.days():
            yield day, self.read_day(day)


# -- per-process open cache ---------------------------------------------------

#: root path → (manifest identity, opened store).  Process-local by
#: construction: fork'd scan workers each start with a copy and then
#: diverge, so one worker's cache never aliases another's mmaps.
_OPEN_STORES: Dict[str, Tuple[Tuple[int, int], "FlowStore"]] = {}
_OPEN_LOCK = threading.Lock()


def open_cached(root: PathLike) -> FlowStore:
    """Open ``root`` through the per-process verified-open cache.

    Keyed by the manifest file's ``(mtime_ns, size)`` identity, so a
    store rewritten between queries is reopened (and re-verified)
    rather than served from a stale manifest, while repeat opens of an
    unchanged store reuse the parsed manifest *and* its verified
    sidecar cache.  This is what shard-scan workers call: the first
    shard a worker sees pays the manifest parse, every later shard is
    a dictionary hit.
    """
    path = Path(root)
    key = str(path)
    try:
        stat = (path / _MANIFEST).stat()
        identity = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        identity = (0, 0)
    with _OPEN_LOCK:
        cached = _OPEN_STORES.get(key)
        if cached is not None and cached[0] == identity:
            return cached[1]
    store = FlowStore(path)
    with _OPEN_LOCK:
        _OPEN_STORES[key] = (identity, store)
    return store
