"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper|oneshot \
        [--seed N] [--scenario-seed N] [--seconds S] [--trace 0|1]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of an extra traced pass, whose spans are written to
``.perfbench_spans/<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line
before it, starting ``record``, holds the full record (host fingerprint,
git commit, seeds, every named metric), which ``compare.py`` reads.
Scratch data lives in a temporary directory under the
repository root that is removed on exit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness, spans  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: The scenario seed every experiment check passes on (see README).
DEFAULT_SCENARIO_SEED = 20200316
#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 3
SCRATCH = ".perfbench_tmp"
#: Where a traced run leaves its spans, one JSON object per line.
SPANS_DIR = ".perfbench_spans"
#: The end-to-end metrics and their units (definitions in the README).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "throughput_per_s": "1/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SCENARIO_SEED,
                        help="request-stream seed: the oneshot query "
                             "rotation and windows")
    parser.add_argument("--scenario-seed", type=int,
                        default=DEFAULT_SCENARIO_SEED,
                        help="seed of the synthetic world every workload "
                             "generates its flows from")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup(workload) -> float:
    """Import the program, then build the inputs SETUP_REPEATS times.

    Returns the import time plus the median build time.
    """
    t0 = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    return import_s + harness.median(builds)


def _end_to_end(workload, setup_s: float, untraced) -> dict:
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": workload.peak_rss_mb(),
        "op_p50_ms": harness.median(untraced.latencies) * 1e3,
        "throughput_per_s": untraced.throughput,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _per_layer(untraced, traced, tracer) -> dict:
    from repro.experiments.base import REGISTRY

    values = spans.layer_metrics(tracer.spans, traced.ops, list(REGISTRY))
    values.update(traced.layer)
    values["obs.trace_overhead"] = (
        harness.median(traced.latencies) / harness.median(untraced.latencies)
    )
    out = {name: (values.get(name, 0.0), unit)
           for name, (unit, _) in spans.PER_LAYER.items()}
    for experiment_id in REGISTRY:
        name = f"experiments.{experiment_id}.busy_s"
        out[name] = (values[name], "s")
    return out


def _write_spans(tracer, path: Path) -> None:
    """One JSON object per span: name, start, end, parent, op, attrs."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        for span in sorted(tracer.spans, key=lambda s: s.start):
            handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch_root = ROOT / SCRATCH
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    spans_file = None
    # Experiments seal temporary stores through tempfile: keep them here.
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        workload = WORKLOADS[args.workload](
            args.seed, args.scenario_seed, workdir, ROOT
        )
        setup_s = _setup(workload)
        untraced = workload.measure(args.seconds)
        passes = [untraced]
        if args.trace:
            tracer = spans.Tracer()
            traced = workload.measure(args.seconds, tracer)
            passes.append(traced)
            metrics = _per_layer(untraced, traced, tracer)
            spans_file = (ROOT / SPANS_DIR /
                          f"{args.workload}-seed{args.seed}.jsonl")
            _write_spans(tracer, spans_file)
        else:
            metrics = _end_to_end(workload, setup_s, untraced)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for note in [n for p in passes for n in p.notes]:
        print(f"FAILED {note}")
    named = {**untraced.named, **metrics}
    tail = harness.tail_percentile(untraced.latencies)
    if tail is not None and tail[0] > 50:
        named[f"op_p{tail[0]:g}_ms"] = (tail[1] * 1e3, "ms")
    for name, (value, unit) in named.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'operations timed':44s} {len(untraced.latencies):>8d}")
    print(f"{'failed / attempted':44s} {failed:>8d} / {attempted}")
    if spans_file is not None:
        print(f"{'spans written to':44s} {spans_file.relative_to(ROOT)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": args.scenario_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": harness.host_fingerprint(),
        "git_sha": harness.git_sha(ROOT),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "attempted": attempted,
        "failed": failed,
        "samples": len(untraced.latencies),
        "spans_file": (str(spans_file.relative_to(ROOT))
                       if spans_file is not None else None),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
