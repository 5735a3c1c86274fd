"""Persistence for flow tables.

Two formats:

* **CSV** — human-readable, one header row, for small tables, examples,
  and interchange with external tools.
* **NPZ** — compressed numpy archive, one entry per column, for large
  synthetic traces and the on-disk dataset cache.  Loading is
  orders of magnitude faster than CSV.

The partitioned flow store has its own columnar layout
(:mod:`repro.flows.colstore`); :func:`file_sha256` is shared with it.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from repro.flows.record import FlowRecord
from repro.flows.table import COLUMNS, FlowTable

PathLike = Union[str, Path]

_CSV_HEADER = list(COLUMNS)


def write_csv(table: FlowTable, path: PathLike) -> None:
    """Write ``table`` to ``path`` as CSV with a header row."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        columns = [table.column(name) for name in _CSV_HEADER]
        for row in zip(*columns):
            writer.writerow([int(v) for v in row])


def read_csv(path: PathLike) -> FlowTable:
    """Read a flow table previously written by :func:`write_csv`."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(
                f"unexpected CSV header in {path}: {header!r}"
            )
        rows = [[int(v) for v in row] for row in reader if row]
    columns = {
        name: np.array([row[i] for row in rows], dtype=dtype)
        for i, (name, dtype) in enumerate(COLUMNS.items())
    }
    return FlowTable(columns)


def iter_csv_records(path: PathLike) -> Iterator[FlowRecord]:
    """Stream records from a CSV flow file without loading it whole."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(
                f"unexpected CSV header in {path}: {header!r}"
            )
        for row in reader:
            if not row:
                continue
            values = dict(zip(_CSV_HEADER, (int(v) for v in row)))
            yield FlowRecord(**values)


def write_npz(table: FlowTable, path: PathLike) -> None:
    """Write ``table`` to ``path`` as a compressed numpy archive."""
    np.savez_compressed(
        Path(path), **{name: table.column(name) for name in COLUMNS}
    )


def read_npz(path: PathLike) -> FlowTable:
    """Read a flow table previously written by :func:`write_npz`."""
    with np.load(Path(path)) as archive:
        missing = set(COLUMNS) - set(archive.files)
        if missing:
            raise ValueError(
                f"flow archive {path} is missing columns: {sorted(missing)}"
            )
        columns = {name: archive[name] for name in COLUMNS}
    return FlowTable(columns)


def file_sha256(path: PathLike) -> str:
    """Hex SHA-256 of a file's bytes (streamed in 1 MiB chunks)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
