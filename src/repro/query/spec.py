"""Declarative query specifications.

A :class:`QuerySpec` names everything an analytical query needs —
vantage, inclusive date range, row predicates, group-by keys,
aggregates, and optional time bucketing — as plain data.  The paper's
analyses are all instances of this shape: hourly volume series are
``bucket="hour"`` with a ``bytes`` aggregate, the port/application
tables are ``group_by=("transport",)``, Fig 8's "order of households"
proxy is ``bucket="hour"`` with a ``distinct_dst_ips`` aggregate.

Specs are immutable and canonically serializable: :meth:`to_dict`
produces one normalized JSON form and :meth:`fingerprint` hashes it, so
two equal queries always share one cache identity regardless of how
they were written down (predicate order, list vs. set values, string
vs. date endpoints).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.flows.table import COLUMNS, DERIVED_BASE_COLUMNS, DERIVED_KEYS
from repro.query.errors import QueryError

#: Keys a query may group rows by: every table column plus the derived
#: integer keys (``service_port``, ``transport``).
GROUP_KEYS: Tuple[str, ...] = tuple(COLUMNS) + tuple(DERIVED_KEYS)

#: Supported aggregate names.
AGGREGATES: Tuple[str, ...] = (
    "bytes",
    "packets",
    "connections",
    "flows",
    "distinct_src_ips",
    "distinct_dst_ips",
)

#: Aggregates estimated with HyperLogLog sketches (mergeable across
#: partitions; subject to the sketch's documented relative error).
SKETCH_AGGREGATES: Tuple[str, ...] = ("distinct_src_ips", "distinct_dst_ips")

#: Value column (or counting mode) behind each exact aggregate.
EXACT_AGGREGATE_COLUMNS: Mapping[str, str] = {
    "bytes": "n_bytes",
    "packets": "n_packets",
    "connections": "connections",
}

#: Physical input column behind each aggregate (``None`` means the
#: aggregate only counts rows and reads no column data).
AGGREGATE_INPUT_COLUMNS: Mapping[str, Optional[str]] = {
    "bytes": "n_bytes",
    "packets": "n_packets",
    "connections": "connections",
    "flows": None,
    "distinct_src_ips": "src_ip",
    "distinct_dst_ips": "dst_ip",
}

#: Time-bucket granularities (``None`` = one result row per group).
BUCKETS: Tuple[Optional[str], ...] = (None, "hour", "day")

#: Default HyperLogLog precision for distinct aggregates (~1.6% error).
DEFAULT_HLL_P = 12

DateLike = Union[str, _dt.date]


def _as_date(value: DateLike, name: str) -> _dt.date:
    if isinstance(value, _dt.date):
        return value
    try:
        return _dt.date.fromisoformat(str(value))
    except ValueError as exc:
        raise QueryError(f"{name} is not an ISO date: {value!r}") from exc


@dataclass(frozen=True)
class Predicate:
    """One pushed-down row predicate on an integer column or derived key.

    ``op="in"`` keeps rows whose key is one of ``values`` (sorted,
    deduplicated); ``op="range"`` keeps rows with
    ``values[0] <= key <= values[1]``.
    """

    column: str
    op: str
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.column not in GROUP_KEYS:
            raise QueryError(
                f"unknown predicate column {self.column!r}; "
                f"valid keys are {sorted(GROUP_KEYS)}"
            )
        if self.op not in ("in", "range"):
            raise QueryError(
                f"unknown predicate op {self.op!r}; use 'in' or 'range'"
            )
        if not self.values:
            raise QueryError(
                f"predicate on {self.column!r} has no values"
            )
        if any(not isinstance(v, int) or isinstance(v, bool)
               for v in self.values):
            raise QueryError(
                f"predicate values on {self.column!r} must be integers"
            )
        if self.op == "range":
            if len(self.values) != 2:
                raise QueryError(
                    f"range predicate on {self.column!r} needs exactly "
                    f"(lo, hi), got {len(self.values)} values"
                )
            if self.values[0] > self.values[1]:
                raise QueryError(
                    f"range predicate on {self.column!r} is empty: "
                    f"{self.values[0]} > {self.values[1]}"
                )
        elif tuple(sorted(set(self.values))) != self.values:
            # Canonical form is sorted + deduplicated; the constructors
            # below normalize, so reaching this means a hand-built
            # predicate would break fingerprint canonicality.
            raise QueryError(
                f"'in' predicate values on {self.column!r} must be "
                f"sorted and unique (got {self.values})"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "column": self.column,
            "op": self.op,
            "values": list(self.values),
        }


def _normalize_predicate(column: str, condition: object) -> Predicate:
    """Build one canonical predicate from a user-facing condition.

    Scalars mean equality, sequences/sets mean membership, and
    ``{"min": lo, "max": hi}`` mappings mean an inclusive range.
    """
    if isinstance(condition, Mapping):
        unknown = set(condition) - {"min", "max"}
        if unknown:
            raise QueryError(
                f"range condition on {column!r} has unknown keys "
                f"{sorted(unknown)}; use 'min'/'max'"
            )
        if "min" not in condition or "max" not in condition:
            raise QueryError(
                f"range condition on {column!r} needs both 'min' and 'max'"
            )
        return Predicate(
            column, "range",
            (int(condition["min"]), int(condition["max"])),
        )
    if isinstance(condition, (list, tuple, set, frozenset)):
        return Predicate(
            column, "in", tuple(sorted({int(v) for v in condition}))
        )
    return Predicate(column, "in", (int(condition),))


@dataclass(frozen=True)
class QuerySpec:
    """One declarative filter → group → aggregate query.

    Use :meth:`build` (keyword conditions, flexible dates) or
    :meth:`from_dict` (JSONL wire form) rather than the raw
    constructor, which expects fully canonical predicate tuples.
    """

    vantage: str
    start: _dt.date
    end: _dt.date
    where: Tuple[Predicate, ...] = ()
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[str, ...] = ("bytes",)
    bucket: Optional[str] = None
    hll_p: int = DEFAULT_HLL_P

    def __post_init__(self) -> None:
        if not self.vantage or not isinstance(self.vantage, str):
            raise QueryError("vantage must be a non-empty string")
        if not isinstance(self.start, _dt.date) or not isinstance(
            self.end, _dt.date
        ):
            raise QueryError("start/end must be datetime.date values")
        if self.end < self.start:
            raise QueryError(
                f"query range end {self.end} precedes start {self.start}"
            )
        for key in self.group_by:
            if key not in GROUP_KEYS:
                raise QueryError(
                    f"unknown group key {key!r}; valid keys are "
                    f"{sorted(GROUP_KEYS)}"
                )
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryError(f"duplicate group keys in {self.group_by}")
        if len(self.group_by) > 3:
            raise QueryError(
                "at most 3 group keys are supported (plus the time bucket)"
            )
        if not self.aggregates:
            raise QueryError("a query needs at least one aggregate")
        for aggregate in self.aggregates:
            if aggregate not in AGGREGATES:
                raise QueryError(
                    f"unknown aggregate {aggregate!r}; valid aggregates "
                    f"are {list(AGGREGATES)}"
                )
        if len(set(self.aggregates)) != len(self.aggregates):
            raise QueryError(f"duplicate aggregates in {self.aggregates}")
        if self.bucket not in BUCKETS:
            raise QueryError(
                f"unknown time bucket {self.bucket!r}; use 'hour', "
                f"'day', or omit"
            )
        if self.bucket in self.group_by:
            raise QueryError(
                f"bucket {self.bucket!r} duplicates a group key"
            )
        if not 4 <= self.hll_p <= 18:
            raise QueryError(
                f"hll_p must be in [4, 18], got {self.hll_p}"
            )

    # -- canonical serialization -------------------------------------------

    @property
    def key_names(self) -> Tuple[str, ...]:
        """Result-row key columns: the bucket (if any) then group keys."""
        bucket = (self.bucket,) if self.bucket else ()
        return bucket + self.group_by

    def to_dict(self) -> Dict[str, object]:
        """The canonical JSON-serializable form (wire + fingerprint)."""
        return {
            "vantage": self.vantage,
            "start": self.start.isoformat(),
            "end": self.end.isoformat(),
            "where": [
                p.to_dict()
                for p in sorted(
                    self.where, key=lambda p: (p.column, p.op, p.values)
                )
            ],
            "group_by": list(self.group_by),
            "aggregates": list(self.aggregates),
            "bucket": self.bucket,
            "hll_p": self.hll_p,
        }

    def referenced_columns(self) -> Tuple[str, ...]:
        """The physical columns this query reads, in canonical order.

        The union of predicate columns, group keys, the ``hour`` column
        for hour bucketing, and each aggregate's input column — with
        derived keys (``service_port``, ``transport``) expanded into
        the base columns they are computed from.  This is the
        projection the columnar store pushes down: a plain partition scan
        decodes (and checksums) exactly these columns.  The tuple can be
        empty — a pure row count reads no column data at all.
        """
        names = set(self.group_by)
        names.update(p.column for p in self.where)
        if self.bucket == "hour":
            names.add("hour")
        physical = set()
        for name in names:
            if name in COLUMNS:
                physical.add(name)
            else:
                physical.update(DERIVED_BASE_COLUMNS[name])
        for aggregate in self.aggregates:
            column = AGGREGATE_INPUT_COLUMNS[aggregate]
            if column is not None:
                physical.add(column)
        return tuple(name for name in COLUMNS if name in physical)

    def fingerprint(self) -> str:
        """Hex digest of the canonical form — the cache identity."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable form (spans, logs, CLI output)."""
        parts = [f"{self.vantage}/{self.start}..{self.end}"]
        if self.bucket:
            parts.append(f"per-{self.bucket}")
        if self.group_by:
            parts.append("by " + ",".join(self.group_by))
        parts.append(",".join(self.aggregates))
        return " ".join(parts)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        vantage: str,
        start: DateLike,
        end: DateLike,
        where: Optional[Mapping[str, object]] = None,
        group_by: Sequence[str] = (),
        aggregates: Sequence[str] = ("bytes",),
        bucket: Optional[str] = None,
        hll_p: int = DEFAULT_HLL_P,
    ) -> "QuerySpec":
        """The convenient constructor: keyword conditions, loose dates.

        ``where`` maps columns to a scalar (equality), a sequence
        (membership), or ``{"min": lo, "max": hi}`` (inclusive range)::

            QuerySpec.build(
                "isp-ce", "2020-02-19", "2020-03-24",
                where={"proto": 17, "service_port": [443, 4500]},
                group_by=["transport"], aggregates=["bytes"],
            )
        """
        predicates = tuple(
            _normalize_predicate(column, condition)
            for column, condition in sorted((where or {}).items())
        )
        return cls(
            vantage=vantage,
            start=_as_date(start, "start"),
            end=_as_date(end, "end"),
            where=predicates,
            group_by=tuple(group_by),
            aggregates=tuple(aggregates),
            bucket=bucket,
            hll_p=int(hll_p),
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QuerySpec":
        """Parse one wire-form query (a parsed JSONL line).

        Accepts both the canonical predicate-list ``where`` form and
        the keyword-condition mapping accepted by :meth:`build`.
        Unknown fields are an error, so typos cannot silently relax a
        query.
        """
        if not isinstance(payload, Mapping):
            raise QueryError(
                f"query must be a JSON object, got {type(payload).__name__}"
            )
        known = {
            "vantage", "start", "end", "where", "group_by",
            "aggregates", "bucket", "hll_p",
        }
        unknown = set(payload) - known
        if unknown:
            raise QueryError(
                f"unknown query fields {sorted(unknown)}; "
                f"valid fields are {sorted(known)}"
            )
        for required in ("vantage", "start", "end"):
            if required not in payload:
                raise QueryError(f"query is missing {required!r}")
        where_payload = payload.get("where") or {}
        if isinstance(where_payload, Mapping):
            predicates = tuple(
                _normalize_predicate(column, condition)
                for column, condition in sorted(where_payload.items())
            )
        elif isinstance(where_payload, Sequence):
            predicates = tuple(
                Predicate(
                    column=str(entry.get("column")),
                    op=str(entry.get("op", "in")),
                    values=tuple(int(v) for v in entry.get("values", ())),
                )
                if isinstance(entry, Mapping)
                else _raise_where(entry)
                for entry in where_payload
            )
        else:
            raise QueryError(
                "where must be a column->condition mapping or a "
                "predicate list"
            )
        return cls(
            vantage=str(payload["vantage"]),
            start=_as_date(payload["start"], "start"),
            end=_as_date(payload["end"], "end"),
            where=predicates,
            group_by=tuple(payload.get("group_by") or ()),
            aggregates=tuple(payload.get("aggregates") or ("bytes",)),
            bucket=payload.get("bucket"),
            hll_p=int(payload.get("hll_p", DEFAULT_HLL_P)),
        )


def _raise_where(entry: object) -> Predicate:
    raise QueryError(
        f"predicate entries must be objects, got {type(entry).__name__}"
    )
