"""Metric instruments: counters, gauges, histograms, and timers.

The pipeline runs unattended over large synthetic traces, so the hot
paths account for themselves: flow counts, rows generated, bytes
aggregated, RNG draws, and per-experiment wall time all flow into a
process-global :class:`MetricsRegistry` (see :mod:`repro.obs`).

Well-known counter families (all created lazily on first use):

* ``flowgen.*`` — synthesis volume and RNG draw accounting,
* ``table.*`` — :class:`~repro.flows.table.FlowTable` concat/filter
  traffic,
* ``groupby.*`` — the aggregation engine's ``index-builds``,
  ``index-rows``, ``index-reuses``, and (with
  ``REPRO_NO_GROUP_INDEX`` set) ``fallbacks``,
* ``dataset-cache.*`` — memory-tier ``hits``/``misses``/``bypasses``/
  ``bytes`` plus the disk tier's ``disk-hits``/``disk-misses``/
  ``disk-writes``/``disk-bytes``,
* ``experiments.*`` — per-experiment runs and wall time.

Two registry implementations share one interface:

* :class:`MetricsRegistry` — the real thing; instruments are created on
  first use and keyed by name, and :meth:`MetricsRegistry.snapshot`
  returns a JSON-serializable dump.
* :class:`NullRegistry` — the default; hands out shared no-op
  instruments so instrumented code pays only a couple of attribute
  lookups per call when telemetry is disabled.

Every instrument is thread-safe (the parallel executor's workers and
the query service's pool all report into one registry).  Histograms
are *bounded* streaming quantile sketches — a long-running ``serve``
process can record millions of latencies without the registry growing
past a fixed bucket table (see :class:`Histogram`).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing integer metric (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value metric (thread-safe).

    ``set`` is last-write-wins; ``inc``/``dec`` adjust the current
    value atomically (an unset gauge counts as 0), so callers tracking
    levels — queue depth, in-flight work — never read-modify-write
    around the instrument.
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge (unset counts as 0)."""
        with self._lock:
            self._value = (self._value or 0.0) + float(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge (unset counts as 0)."""
        self.inc(-amount)

    @property
    def value(self) -> Optional[float]:
        return self._value


def _nearest_rank(q: float, n: int) -> int:
    """1-based rank of the ``q`` quantile among ``n`` sorted values:
    ``ceil(q * n)``, at least 1, with float noise in ``q * n`` (such as
    ``0.07 * 100 = 7.000000000000001``) rounded away first."""
    return max(1, math.ceil(round(q * n, 9)))


class Histogram:
    """A bounded streaming quantile sketch over log-scale buckets.

    Positive values land in fixed multiplicative buckets: value ``v``
    maps to index ``ceil(log(v) / log(gamma))`` with
    ``gamma = (1 + a) / (1 - a)`` for relative accuracy ``a``
    (default 1%), so any quantile estimate is within ``a`` of the true
    rank value.  Count, sum, min, and max are tracked exactly; values
    ``<= 0`` share one underflow bucket (durations are the intended
    payload).  The bucket table is sparse and bounded by the *dynamic
    range* of the data — recording a billion latencies between 1 µs
    and 1 h touches ~450 buckets at 1% accuracy — never by the
    observation count, so long-running services cannot grow it without
    bound.

    Quantiles are nearest-rank: ``quantile(q)`` is the ``ceil(q * n)``-th
    smallest observation.  Up to :attr:`EXACT_SAMPLES` observations are
    also kept verbatim and answered exactly, so a handful of request
    latencies reports its real p99 (a sketch rank over three samples
    would hide the slowest); past the cap the samples are dropped and
    the buckets answer.

    Recording takes the instrument lock (a dict update, not an append
    to an ever-growing list), and sketches with equal accuracy merge
    exactly via :meth:`merge` — per-thread histograms fold into one
    with the same buckets they would have produced shared.
    """

    DEFAULT_RELATIVE_ACCURACY = 0.01
    #: Observations kept verbatim before quantiles come from the buckets.
    EXACT_SAMPLES = 64

    __slots__ = ("name", "relative_accuracy", "_gamma", "_log_gamma",
                 "_buckets", "_zero_count", "_samples", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str,
                 relative_accuracy: Optional[float] = None):
        if relative_accuracy is None:
            relative_accuracy = self.DEFAULT_RELATIVE_ACCURACY
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.name = name
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        #: bucket index -> observation count (sparse).
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        #: Every observation while ``_count <= EXACT_SAMPLES``, else None.
        self._samples: Optional[List[float]] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def _index(self, value: float) -> int:
        """Bucket index of ``value > 0``: covers ``(γ^(i-1), γ^i]``."""
        return math.ceil(math.log(value) / self._log_gamma)

    def _value_at(self, index: int) -> float:
        """Representative value of bucket ``index`` (midpoint-ish).

        ``2γ^i / (γ + 1)`` bounds the relative error at both bucket
        edges by the configured accuracy.
        """
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value > 0.0:
                index = self._index(value)
                self._buckets[index] = self._buckets.get(index, 0) + 1
            else:
                self._zero_count += 1
            if self._samples is not None:
                if self._count <= self.EXACT_SAMPLES:
                    self._samples.append(value)
                else:
                    self._samples = None

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this sketch (exactly).

        Both sketches must share one ``relative_accuracy`` (the bucket
        grids must line up); ``other`` is left untouched.
        """
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                f"cannot merge histograms with different accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        # Snapshot other under its own lock, then fold under ours —
        # never holding both, so concurrent cross-merges cannot
        # deadlock.
        with other._lock:
            buckets = dict(other._buckets)
            zero_count = other._zero_count
            samples = (
                None if other._samples is None else list(other._samples)
            )
            count = other._count
            total = other._sum
            minimum = other._min
            maximum = other._max
        with self._lock:
            for index, n in buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            self._zero_count += zero_count
            if self._samples is not None and count:
                if samples is not None and \
                        self._count + count <= self.EXACT_SAMPLES:
                    self._samples.extend(samples)
                else:
                    self._samples = None
            self._count += count
            self._sum += total
            if minimum < self._min:
                self._min = minimum
            if maximum > self._max:
                self._max = maximum

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self._count else float("nan")

    @property
    def mean(self) -> float:
        if not self._count:
            return float("nan")
        return self._sum / self._count

    @property
    def n_buckets(self) -> int:
        """Occupied buckets — the sketch's entire variable footprint."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, ``0 <= q <= 1``.

        Exact up to :attr:`EXACT_SAMPLES` observations; past that
        within ``relative_accuracy`` of the exact rank value.  Always
        clamped into ``[min, max]`` (so ``quantile(0)`` /
        ``quantile(1)`` are exact).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if not self._count:
            return float("nan")
        # The extremes are tracked exactly; the zero/underflow bucket
        # would otherwise answer 0.0 for q=0 when negatives were seen.
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = _nearest_rank(q, self._count)
        if self._samples is not None:
            return sorted(self._samples)[rank - 1]
        estimate = 0.0
        cumulative = self._zero_count
        if rank > cumulative:
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if rank <= cumulative:
                    estimate = self._value_at(index)
                    break
        return max(self._min, min(self._max, estimate))

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics as a JSON-serializable dict."""
        with self._lock:
            if not self._count:
                return {"count": 0}
            return {
                "count": self._count,
                "total": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
                "p50": self._quantile_locked(0.5),
                "p90": self._quantile_locked(0.9),
                "p99": self._quantile_locked(0.99),
            }


class _TimerContext:
    """Context manager recording one duration into a timer."""

    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: "Timer"):
        self._timer = timer
        self._t0 = 0.0

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.record(time.perf_counter() - self._t0)


class Timer(Histogram):
    """A histogram of wall-clock durations in seconds."""

    __slots__ = ()

    def time(self) -> _TimerContext:
        """Context manager timing its body."""
        return _TimerContext(self)


class MetricsRegistry:
    """Named instruments, created on first use."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}
        self._create_lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name)
                )
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._timers.setdefault(name, Timer(name))
        return instrument

    def top_counters(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` largest counters, descending by value."""
        ranked = sorted(
            ((c.name, c.value) for c in self._counters.values()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return ranked[:n]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instruments as a JSON-serializable dict."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
            "timers": {
                name: t.snapshot() for name, t in sorted(self._timers.items())
            },
        }


class _NullContext:
    """Shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


class NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None

    def inc(self, amount: float = 1.0) -> None:
        return None


class NullHistogram(Histogram):
    __slots__ = ()

    def record(self, value: float) -> None:
        return None


class NullTimer(Timer):
    __slots__ = ()

    def record(self, value: float) -> None:
        return None

    def time(self) -> _NullContext:
        return _NULL_CONTEXT


_NULL_CONTEXT = _NullContext()
_NULL_COUNTER = NullCounter("null")
_NULL_GAUGE = NullGauge("null")
_NULL_HISTOGRAM = NullHistogram("null")
_NULL_TIMER = NullTimer("null")


class NullRegistry(MetricsRegistry):
    """The disabled registry: shared no-op instruments, empty snapshots."""

    enabled = False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def timer(self, name: str) -> Timer:
        return _NULL_TIMER
