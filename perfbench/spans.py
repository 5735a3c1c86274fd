"""In-memory spans from wrappers the benchmark installs for a traced run.

Nothing here lives inside ``src/``: :func:`instrument` swaps each named
public function of the program for a timing wrapper for the length of a
``with`` block and puts the originals back on exit.  Spans stay in memory
(:class:`Tracer`) until the run ends; then they are turned into per-layer
metrics (:func:`layer_metrics`) and written out by the runner.

A span records its name, start, end, parent and the operation id shared by
every span of one benchmark operation.  The current span travels in a
:mod:`contextvars` variable, so spans opened on the query service's scan
threads still find their parent (see :class:`_ContextPool`).
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from perfbench import harness

__all__ = [
    "PER_LAYER",
    "Span",
    "Tracer",
    "busy_s",
    "covered_s",
    "instrument",
    "layer_metrics",
    "self_s",
]


@dataclasses.dataclass
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    attrs: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        # Objects handed across a queue the wrappers cannot see into
        # (a query spec travelling from submit() to a service worker),
        # mapped to the span that handed them over.
        self._links: Dict[int, Span] = {}

    @contextmanager
    def span(self, name: str, op: Optional[int] = None,
             parent: Optional[Span] = None) -> Iterator[Span]:
        outer = parent if parent is not None else self._current.get()
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=outer.id if outer is not None else None,
            op=op if op is not None else (
                outer.op if outer is not None else None
            ),
        )
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(span)

    def current(self) -> Optional[Span]:
        return self._current.get()

    def link(self, obj: object) -> None:
        """Remember the current span as the origin of ``obj``."""
        span = self._current.get()
        if span is not None:
            with self._lock:
                self._links[id(obj)] = span

    def adopt(self, obj: object) -> Optional[Span]:
        """The span that :meth:`link`-ed ``obj`` (removing the link)."""
        with self._lock:
            return self._links.pop(id(obj), None)

    def add(self, spans: Iterable[Span]) -> None:
        """Merge spans recorded elsewhere (another process)."""
        with self._lock:
            self.spans.extend(spans)

    def next_id(self) -> int:
        return next(self._ids)


# -- span arithmetic ----------------------------------------------------------


def covered_s(intervals: Iterable[Tuple[float, float]],
              lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def _children(spans: List[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_s(spans: List[Span], name: str) -> float:
    """Total time of ``name`` spans not covered by any of their children."""
    children = _children(spans)
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        kids = [(c.start, c.end) for c in children.get(span.id, ())]
        total += span.duration - covered_s(kids, span.start, span.end)
    return total


def busy_s(spans: List[Span], name: str) -> float:
    """Total duration of ``name`` spans, not counting a span nested in
    another ``name`` span twice."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = by_id.get(parent.parent) if parent.parent else None
        if not nested:
            total += span.duration
    return total


def _calls(spans: List[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def _attr_sum(spans: List[Span], name: str, attr: str) -> float:
    return sum(s.attrs.get(attr, 0.0) for s in spans if s.name == name)


# -- wrappers -----------------------------------------------------------------


class _ContextPool:
    """Executor proxy that runs each task in a copy of the submitter's
    context, so scan spans on pool threads keep their parent."""

    def __init__(self, inner: object):
        self._inner = inner

    def submit(self, fn: Callable, *args: object, **kwargs: object):
        context = contextvars.copy_context()
        return self._inner.submit(context.run, fn, *args, **kwargs)


def _timed(tracer: Tracer, name: str, func: Callable,
           before: Optional[Callable] = None,
           after: Optional[Callable] = None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: object, **kwargs: object) -> object:
        state = before(args, kwargs) if before is not None else None
        with tracer.span(name) as span:
            result = func(*args, **kwargs)
        if after is not None:
            after(span, args, kwargs, result, state)
        return result

    return wrapper


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> object:
    return args[index] if len(args) > index else kwargs.get(name)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install timing wrappers around each layer's public functions.

    Every patched attribute is restored on exit, also when the block (or
    the installation itself) raises.  Module-level functions are rebound
    in every loaded ``repro`` module that holds them, so callers that
    imported the function by name are timed too.
    """
    from repro.experiments import base

    patches: List[Tuple[object, str, object]] = []
    try:
        _install(tracer, patches)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            if owner is base.REGISTRY:
                base.REGISTRY[attr] = original
            else:
                setattr(owner, attr, original)


def _install(tracer: Tracer,
             patches: List[Tuple[object, str, object]]) -> None:
    """Apply the wrappers, recording ``(owner, attr, original)`` in
    ``patches`` as each one goes in."""
    from repro.core import appclass
    from repro.experiments import base
    from repro.flows import colstore, encodings, store
    from repro.query import engine, service
    from repro.synth import datasets, vantage
    import repro.experiments  # noqa: F401  (fills the registry)

    def patch(owner: object, attr: str, wrapper: object) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(module: object, attr: str, wrapper: object) -> None:
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    mod.__dict__.get(attr) is original:
                patch(mod, attr, wrapper)

    def rows_after(span, args, kwargs, result, state):
        span.attrs["rows"] = len(result)

    patch(vantage.VantagePoint, "generate_flows", _timed(
        tracer, "synth.generate_flows",
        vantage.VantagePoint.generate_flows, after=rows_after,
    ))

    def hits_before(args, kwargs):
        return args[0].stats.hits

    def hits_after(span, args, kwargs, result, hits):
        span.attrs["hit"] = float(args[0].stats.hits > hits)

    patch(datasets.DatasetCache, "fetch", _timed(
        tracer, "synth.datasets.fetch", datasets.DatasetCache.fetch,
        before=hits_before, after=hits_after,
    ))

    def bytes_before(args, kwargs):
        return harness.tree_bytes(args[0].root)

    def seal_after(span, args, kwargs, result, before_bytes):
        span.attrs["rows"] = len(_arg(args, kwargs, 1, "flows"))
        after_bytes = harness.tree_bytes(args[0].root)
        span.attrs["bytes"] = after_bytes - before_bytes

    patch(store.FlowStore, "write_range", _timed(
        tracer, "flows.store.write_range", store.FlowStore.write_range,
        before=bytes_before, after=seal_after,
    ))
    for owner, attr, name in (
        (store.FlowStore, "write_day", "flows.store.write_day"),
        (store.FlowStore, "open_partition", "flows.store.open_partition"),
        (appclass.AppClass, "select", "core.appclass.AppClass.select"),
    ):
        patch(owner, attr, _timed(tracer, name, owner.__dict__[attr]))
    for module, attr, name in (
        (colstore, "write_partition", "flows.colstore.write_partition"),
        (encodings, "encode_column", "flows.encodings.encode_column"),
        (engine, "scan_partition", "query.engine.scan_partition"),
    ):
        patch_function(module, attr, _timed(tracer, name,
                                            getattr(module, attr)))

    def plan_after(span, args, kwargs, plan, state):
        span.attrs["partitions"] = len(plan.days)

    patch_function(engine, "plan_query", _timed(
        tracer, "query.engine.plan_query", engine.plan_query,
        after=plan_after,
    ))

    original_execute_plan = engine.execute_plan

    @functools.wraps(original_execute_plan)
    def execute_plan(store_, plan, pool=None, *args, **kwargs):
        if pool is not None and not hasattr(pool, "submit_shard"):
            pool = _ContextPool(pool)
        with tracer.span("query.engine.execute_plan"):
            return original_execute_plan(store_, plan, pool, *args, **kwargs)

    patch_function(engine, "execute_plan", execute_plan)

    original_execute_query = engine.execute_query

    @functools.wraps(original_execute_query)
    def execute_query(store_, spec, *args, **kwargs):
        origin = tracer.adopt(spec) if tracer.current() is None else None
        with tracer.span("query.engine.execute_query",
                         parent=origin) as span:
            result = original_execute_query(store_, spec, *args, **kwargs)
            span.attrs["bytes_read"] = result.bytes_read
        return result

    patch_function(engine, "execute_query", execute_query)

    original_submit = service.QueryService.submit

    @functools.wraps(original_submit)
    def submit(self, spec, *args, **kwargs):
        tracer.link(spec)
        return original_submit(self, spec, *args, **kwargs)

    patch(service.QueryService, "submit", submit)

    for experiment_id, spec in list(base.REGISTRY.items()):
        patches.append((base.REGISTRY, experiment_id, spec))
        base.REGISTRY[experiment_id] = dataclasses.replace(
            spec, runner=_timed(tracer, f"experiments.{experiment_id}",
                                spec.runner),
        )


# -- per-layer metrics --------------------------------------------------------

#: Every per-layer metric but the per-experiment ones: name -> (unit, better).
#: Times and counts are per operation of the traced pass (see README).
PER_LAYER = {
    "synth.generate_flows.busy_s": ("s", "lower"),
    "synth.generate_flows.rows": ("count", "higher"),
    "synth.datasets.fetch.busy_s": ("s", "lower"),
    "synth.datasets.hit_ratio": ("ratio", "higher"),
    "flows.store.write_day.calls": ("count", "lower"),
    "flows.store.write_day.busy_s": ("s", "lower"),
    "flows.store.write_day.ms_per_partition": ("ms", "lower"),
    "flows.store.manifest.self_s": ("s", "lower"),
    "flows.colstore.write_partition.busy_s": ("s", "lower"),
    "flows.encodings.encode_column.busy_s": ("s", "lower"),
    "flows.store.bytes_per_row": ("B/row", "lower"),
    "flows.store.open_partition.calls": ("count", "lower"),
    "flows.store.open_partition.busy_s": ("s", "lower"),
    "query.engine.plan_query.busy_s": ("s", "lower"),
    "query.engine.scan_partition.calls": ("count", "lower"),
    "query.engine.scan_partition.busy_s": ("s", "lower"),
    "query.engine.merge.self_s": ("s", "lower"),
    "query.engine.bytes_read_per_query": ("B", "lower"),
    "query.engine.partitions_per_query": ("count", "lower"),
    "query.service.queue_wait_ms.p50": ("ms", "lower"),
    "query.service.queue_wait_ms.p95": ("ms", "lower"),
    "core.appclass.AppClass.select.busy_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "oneshot.query_s": ("s", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
}


def layer_metrics(spans: List[Span], ops: int,
                  experiment_ids: Iterable[str]) -> Dict[str, float]:
    """Per-layer metrics from one traced pass, per operation of the pass.

    Times are seconds per operation, counts are calls per operation, and
    ratios are taken over the whole pass.  A layer the workload never
    reached reads 0.
    """
    per_op = 1.0 / max(1, ops)
    out: Dict[str, float] = {}

    def busy(name: str) -> float:
        return busy_s(spans, name) * per_op

    write_calls = _calls(spans, "flows.store.write_day")
    write_busy = busy_s(spans, "flows.store.write_day")
    fetches = _calls(spans, "synth.datasets.fetch")
    sealed_rows = _attr_sum(spans, "flows.store.write_range", "rows")
    queries = _calls(spans, "query.engine.execute_query")
    plans = _calls(spans, "query.engine.plan_query")
    out.update({
        "synth.generate_flows.busy_s": busy("synth.generate_flows"),
        "synth.generate_flows.rows":
            _attr_sum(spans, "synth.generate_flows", "rows") * per_op,
        "synth.datasets.fetch.busy_s": busy("synth.datasets.fetch"),
        "synth.datasets.hit_ratio": (
            _attr_sum(spans, "synth.datasets.fetch", "hit") / fetches
            if fetches else 0.0
        ),
        "flows.store.write_day.calls": write_calls * per_op,
        "flows.store.write_day.busy_s": write_busy * per_op,
        "flows.store.write_day.ms_per_partition": (
            write_busy / write_calls * 1e3 if write_calls else 0.0
        ),
        "flows.store.manifest.self_s":
            self_s(spans, "flows.store.write_day") * per_op,
        "flows.colstore.write_partition.busy_s":
            busy("flows.colstore.write_partition"),
        "flows.encodings.encode_column.busy_s":
            busy("flows.encodings.encode_column"),
        "flows.store.bytes_per_row": (
            _attr_sum(spans, "flows.store.write_range", "bytes") / sealed_rows
            if sealed_rows else 0.0
        ),
        "flows.store.open_partition.calls":
            _calls(spans, "flows.store.open_partition") * per_op,
        "flows.store.open_partition.busy_s":
            busy("flows.store.open_partition"),
        "query.engine.plan_query.busy_s": busy("query.engine.plan_query"),
        "query.engine.scan_partition.calls":
            _calls(spans, "query.engine.scan_partition") * per_op,
        "query.engine.scan_partition.busy_s":
            busy("query.engine.scan_partition"),
        "query.engine.merge.self_s":
            self_s(spans, "query.engine.execute_plan") * per_op,
        "query.engine.bytes_read_per_query": (
            _attr_sum(spans, "query.engine.execute_query", "bytes_read")
            / queries if queries else 0.0
        ),
        "query.engine.partitions_per_query": (
            _attr_sum(spans, "query.engine.plan_query", "partitions") / plans
            if plans else 0.0
        ),
        "core.appclass.AppClass.select.busy_s":
            busy("core.appclass.AppClass.select"),
    })
    for experiment_id in experiment_ids:
        out[f"experiments.{experiment_id}.busy_s"] = busy(
            f"experiments.{experiment_id}"
        )
    return out
