"""The benchmark's workloads: ``paper`` and ``oneshot``.

Each workload builds its inputs in :meth:`Workload.build` (timed as set-up,
repeated by the runner) and measures in :meth:`Workload.measure`, which
returns a :class:`Pass`: operations, failures counted against attempts,
per-operation latencies, throughput, and the workload's own named metrics.
Outputs are checked inside ``measure``, outside the timed operations.

``repro`` is imported only inside methods: the runner times the import
itself as part of set-up.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import harness, spans

STUDY_START = _dt.date(2020, 1, 1)
STUDY_END = _dt.date(2020, 5, 17)
STUDY_DAYS = (STUDY_END - STUDY_START).days + 1
#: Flow sampling fidelity of every store the benchmark seals.
STORE_FIDELITY = 0.3

ONESHOT_VANTAGE = "isp-ce"
ONESHOT_SHAPES = ("narrow", "filtered", "full")
#: A fresh-process query still running after this long counts as failed.
ONESHOT_TIMEOUT_S = 60.0

_CHILD = (
    "import sys\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
_TRACED_CHILD = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import repro.cli\n"
    "import_s = time.perf_counter() - t0\n"
    "from perfbench import spans\n"
    "tracer = spans.Tracer()\n"
    "with spans.instrument(tracer):\n"
    "    code = repro.cli.main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as handle:\n"
    "    json.dump({'import_s': import_s, 'spans': [\n"
    "        vars(s) for s in tracer.spans]}, handle)\n"
    "sys.exit(code)\n"
)


@dataclasses.dataclass
class Pass:
    """What one measuring pass of a workload observed."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: Seconds per operation.
    latencies: List[float] = dataclasses.field(default_factory=list)
    #: Work items (experiments or queries) completed per second of the
    #: pass's wall time, which includes the work between operations.
    throughput: float = 0.0
    #: The workload's own metrics: name -> (value, unit).
    named: Dict[str, Tuple[float, str]] = dataclasses.field(
        default_factory=dict
    )
    #: Per-layer metrics the workload measures client-side.
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: One line per failure.
    notes: List[str] = dataclasses.field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def _instrumented(tracer: Optional[spans.Tracer]):
    return spans.instrument(tracer) if tracer is not None else nullcontext()


def _op_span(tracer: Optional[spans.Tracer], op: int):
    return tracer.span("op", op=op) if tracer is not None else nullcontext()


class _Budget:
    """Starts operations while the next one, predicted to take as long as
    the last, still ends within ``seconds``; always starts the first."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.last: Optional[float] = None

    def more(self) -> bool:
        now = time.perf_counter()
        previous, self.last = self.last, now
        if previous is None:
            return True
        return now - self.start + (now - previous) <= self.seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _queue_wait(stages: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer queue-wait percentiles from ``QueryResult.stages``."""
    waits = [s["queue"] * 1e3 for s in stages if "queue" in s]
    if not waits:
        return {}
    return {
        "query.service.queue_wait_ms.p50": harness.percentile(waits, 50),
        "query.service.queue_wait_ms.p95": harness.percentile(waits, 95),
    }


def _days(n: int) -> _dt.timedelta:
    return _dt.timedelta(days=n)


class Workload:
    """Base: seeds, a private work directory, and the set-up/measure API."""

    name = ""
    #: Imported (and timed as set-up) before the first :meth:`build`.
    modules: Tuple[str, ...] = ()

    def __init__(self, seed: int, scenario_seed: int, workdir: Path,
                 root: Path):
        self.seed = seed
        self.scenario_seed = scenario_seed
        self.workdir = workdir
        self.root = root

    def build(self) -> None:
        """Build the inputs; called several times, the last build is used."""
        from repro.synth.scenario import build_scenario

        self.scenario = build_scenario(self.scenario_seed)

    def measure(self, seconds: float,
                tracer: Optional[spans.Tracer] = None) -> Pass:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()



# -- paper --------------------------------------------------------------------


class PaperWorkload(Workload):
    """One operation is a ``run_all`` sweep of the 15 experiments."""

    name = "paper"
    modules = ("repro.experiments", "repro.synth.scenario")

    def __init__(self, *args: object, **kwargs: object):
        super().__init__(*args, **kwargs)
        self._digests: Dict[str, str] = {}

    def measure(self, seconds: float,
                tracer: Optional[spans.Tracer] = None) -> Pass:
        from repro.experiments import PipelineConfig, run_all
        from repro.synth.datasets import DatasetCache, use_cache

        result = Pass()
        experiments = 0
        with _instrumented(tracer):
            budget = _Budget(seconds)
            while budget.more():
                with _op_span(tracer, result.ops), use_cache(DatasetCache()):
                    t0 = time.perf_counter()
                    outcomes = run_all(
                        self.scenario, PipelineConfig(), on_error="capture"
                    )
                    result.latencies.append(time.perf_counter() - t0)
                result.ops += 1
                experiments += len(outcomes)
                self._check(outcomes, result)
        result.throughput = experiments / budget.elapsed()
        result.named["paper.sweep_s"] = (
            harness.median(result.latencies), "s"
        )
        return result

    def _check(self, outcomes: list, result: Pass) -> None:
        for outcome in outcomes:
            result.attempted += 1
            digest = hashlib.sha256(json.dumps(
                outcome.metrics, sort_keys=True, default=repr,
            ).encode("utf-8")).hexdigest()
            expected = self._digests.setdefault(outcome.experiment_id, digest)
            if not outcome.passed:
                result.fail(f"{outcome.experiment_id}: failed checks "
                            f"{outcome.failed_checks()}")
            elif digest != expected:
                result.fail(f"{outcome.experiment_id}: metrics differ "
                            f"from the first sweep")


# -- oneshot ------------------------------------------------------------------


def oneshot_queries(seed: int, n: int) -> List[Tuple[str, List[str], dict]]:
    """``n`` ``(kind, query CLI args, QuerySpec.build kwargs)``, rotating
    narrow-week, filtered and full-range shapes from a seeded start."""
    rng = random.Random(seed)
    first = rng.randrange(len(ONESHOT_SHAPES))
    queries = []
    for i in range(n):
        kind = ONESHOT_SHAPES[(first + i) % len(ONESHOT_SHAPES)]
        if kind == "full":
            start, end = STUDY_START, STUDY_END
            build = {"group_by": ["transport"], "bucket": "day"}
            extra = ["--group-by", "transport", "--bucket", "day"]
        else:
            start = STUDY_START + _days(rng.randrange(STUDY_DAYS - 6))
            end = start + _days(6)
            if kind == "narrow":
                build = {"group_by": ["proto"]}
                extra = ["--group-by", "proto"]
            else:
                build = {"where": {"proto": 17}, "group_by": ["service_port"]}
                extra = ["--where", "proto=17", "--group-by", "service_port"]
        build.update(vantage=ONESHOT_VANTAGE, start=start, end=end)
        args = ["query", "--vantage", ONESHOT_VANTAGE,
                "--start", start.isoformat(), "--end", end.isoformat(),
                "--agg", "bytes", "--json", *extra]
        queries.append((kind, args, build))
    return queries


class OneshotWorkload(Workload):
    """One operation is ``repro query --json`` in a fresh interpreter."""

    name = "oneshot"
    modules = ("repro.flows.store", "repro.query", "repro.synth.scenario")

    def build(self) -> None:
        """Seal the vantage's study window into a new store, in place of
        the previous build's."""
        from repro.flows.store import FlowStore

        super().build()
        self.store = self.workdir / "store" / ONESHOT_VANTAGE
        shutil.rmtree(self.store.parent, ignore_errors=True)
        table = self.scenario.vantage(ONESHOT_VANTAGE).generate_flows(
            STUDY_START, STUDY_END, fidelity=STORE_FIDELITY
        )
        FlowStore(self.store).write_range(table, STUDY_START, STUDY_END)

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(children=True)

    def measure(self, seconds: float,
                tracer: Optional[spans.Tracer] = None) -> Pass:
        result = Pass()
        queries = oneshot_queries(self.seed, 1000)
        answers: List[Tuple[dict, Optional[dict]]] = []
        import_s: List[float] = []
        env = dict(os.environ, TMPDIR=str(self.workdir), PYTHONPATH=(
            os.pathsep.join([str(self.root / "src"), str(self.root)])
        ))
        span_file = self.workdir / "child-spans.json"
        budget = _Budget(seconds)
        for op, (_, args, build) in enumerate(queries):
            if not budget.more():
                break
            command = [sys.executable, "-c"]
            command += [_TRACED_CHILD, str(span_file)] if tracer else [_CHILD]
            command += [*args, "--store", str(self.store)]
            t0 = time.perf_counter()
            result.ops += 1
            result.attempted += 1
            try:
                done = subprocess.run(
                    command, capture_output=True, text=True, env=env,
                    cwd=str(self.root), timeout=ONESHOT_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                result.latencies.append(time.perf_counter() - t0)
                result.fail(f"query {args}: no answer within "
                            f"{ONESHOT_TIMEOUT_S:g} s")
                continue
            result.latencies.append(time.perf_counter() - t0)
            if done.returncode != 0:
                result.fail(f"query {args}: exit {done.returncode}: "
                            f"{done.stderr.strip()[-300:]}")
                continue
            try:
                answers.append((build, json.loads(done.stdout)))
            except json.JSONDecodeError as exc:
                result.fail(f"query {args}: --json output is not JSON: {exc}")
                continue
            if tracer is not None:
                import_s.append(self._absorb_spans(tracer, span_file, op))
        result.throughput = result.ops / budget.elapsed()
        self._check(answers, result)
        result.named["oneshot.p50_s"] = (
            harness.median(result.latencies), "s"
        )
        result.layer.update(_queue_wait([a["stages"] for _, a in answers]))
        if import_s:
            cli_import = harness.median(import_s)
            result.layer["cli.import_s"] = cli_import
            result.layer["oneshot.query_s"] = (
                harness.median(result.latencies) - cli_import
            )
        return result

    @staticmethod
    def _absorb_spans(tracer: spans.Tracer, path: Path, op: int) -> float:
        """Move a child's spans into ``tracer`` under operation ``op``."""
        payload = json.loads(path.read_text())
        path.unlink()
        ids: Dict[int, int] = {}
        recorded = []
        for raw in payload["spans"]:
            ids[raw["id"]] = tracer.next_id()
        for raw in payload["spans"]:
            recorded.append(spans.Span(
                id=ids[raw["id"]], name=raw["name"], start=raw["start"],
                end=raw["end"], parent=ids.get(raw["parent"]), op=op,
                attrs=raw["attrs"],
            ))
        tracer.add(recorded)
        return float(payload["import_s"])

    def _check(self, answers: list, result: Pass) -> None:
        """The ``--json`` rows must equal the in-process reference."""
        from repro.flows.store import FlowStore
        from repro.query import QuerySpec, execute_query

        store = FlowStore(self.store)
        reference: Dict[str, Tuple[str, list]] = {}
        for build, answer in answers:
            spec = QuerySpec.build(**build)
            key = spec.fingerprint()
            if key not in reference:
                rows = execute_query(store, spec).rows
                reference[key] = json.loads(json.dumps(rows, default=int))
            if answer.get("fingerprint") != key or \
                    answer.get("rows") != reference[key]:
                result.fail(f"{spec.describe()}: --json rows differ from "
                            f"the in-process reference")


WORKLOADS = {
    workload.name: workload for workload in (PaperWorkload, OneshotWorkload)
}
