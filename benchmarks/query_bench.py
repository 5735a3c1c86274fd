#!/usr/bin/env python
"""Benchmark the concurrent query engine over a partitioned flow store.

Builds one day-partitioned :class:`~repro.flows.store.FlowStore` from a
synthetic vantage trace, then times a mixed query batch (per-transport
tables, hourly volume series, distinct-IP estimates, predicate scans)
three ways —

* ``cold-w1`` — fresh service, one worker (the serial floor),
* ``cold-w4`` — fresh service, four workers (partition- and
  query-level parallelism),
* ``warm`` — the same batch replayed on the warm service (every query
  served from the LRU result cache),

then times an **encoding sweep**: a selective filtered batch (equality
and membership predicates on the dictionary-encoded ``proto`` column)
replayed warm, directly through the engine (``filtered-v3``).  The
predicate-first scan resolves predicates on dictionary codes and bitmap
index rows before materializing any row data, so the sweep must read
fewer bytes than a plain scan of every referenced column over the same
planned partitions would.  Per-column on-disk totals from
``FlowStore.column_stats`` land in the recorded ``colstore`` block.

A final **scaling sweep** replays one scan-heavy multi-vantage batch
(the mixed shapes over the ``isp-ce`` store plus a second,
lower-fidelity ``edu`` store) directly through the engine three ways:
``scale-serial`` (no pool), ``scale-threads`` (the per-partition
thread pool, GIL-bound), and ``scale-procs`` (the process-backed
scatter-gather :class:`~repro.query.procpool.ScanPool`, one worker
per core).  All three must return bit-identical rows; the recorded
``scaling`` block carries the core count, the pool kind that actually
ran, worker-side IPC bytes, and the speedups.  Under
``--fail-on-regression`` the process sweep must beat serial and at
least match threads when the host has 2+ cores, and clear 2x serial
with 4+ cores — on a single-core host only the parity checks gate.

The script appends one entry to ``BENCH_results.json`` in the repo's
``{"runs": [...]}`` history format.  The script exits non-zero — and
records ``exit_status`` — if the one-worker and four-worker sweeps
disagree on any result row, if any partition fails, if the warm
replay misses the cache, or if the filtered sweep reads no fewer bytes
than a plain scan, so a concurrency-induced wrong answer cannot be
recorded as a "fast" result.  ``--fail-on-regression`` additionally
compares the warm-cache and filtered sweeps against the latest
recorded baselines at the same fidelity.

Usage::

    python benchmarks/query_bench.py            # default fidelity
    python benchmarks/query_bench.py --fast --fail-on-regression
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import platform
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.flows.store import FlowStore  # noqa: E402
import repro.obs as obs  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.query import (  # noqa: E402
    QueryService,
    QuerySpec,
    execute_query,
    make_scan_pool,
    plan_query,
)
from repro.synth.scenario import build_scenario  # noqa: E402

#: wall_s key prefix, matching the pytest-style keys already in the file.
KEY = "benchmarks/query_bench.py::query"

VANTAGE = "isp-ce"
START = _dt.date(2020, 2, 10)
END = _dt.date(2020, 3, 29)


def _batch(n_repeats: int) -> List[QuerySpec]:
    """A mixed batch of distinct query shapes over the stored range."""
    specs: List[QuerySpec] = []
    day = START
    for _ in range(n_repeats):
        week_end = min(day + _dt.timedelta(days=6), END)
        specs.extend(
            [
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    group_by=["transport"], aggregates=["bytes", "flows"],
                ),
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    aggregates=["bytes", "connections"], bucket="hour",
                ),
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    aggregates=["distinct_dst_ips"], bucket="day",
                ),
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    where={"proto": 17}, group_by=["service_port"],
                    aggregates=["bytes"],
                ),
            ]
        )
        day += _dt.timedelta(days=7)
        if day > END:
            day = START + _dt.timedelta(days=1)
    return specs


def _scale_specs(vantage: str, n_repeats: int) -> List[QuerySpec]:
    """Scan-heavy shapes for the scaling sweep's second vantage."""
    specs: List[QuerySpec] = []
    day = START
    for _ in range(2 * n_repeats):
        week_end = min(day + _dt.timedelta(days=6), END)
        specs.extend(
            [
                QuerySpec.build(
                    vantage, day, week_end,
                    group_by=["transport"], aggregates=["bytes", "flows"],
                ),
                QuerySpec.build(
                    vantage, day, week_end,
                    aggregates=["bytes", "connections"], bucket="day",
                ),
            ]
        )
        day += _dt.timedelta(days=7)
        if day > END:
            day = START + _dt.timedelta(days=1)
    return specs


def _filtered_batch(n_repeats: int) -> List[QuerySpec]:
    """Selective predicate shapes — the bitmap/dictionary sweep.

    Equality and membership predicates on the dictionary-encoded
    ``proto`` column: a plain scan would decode every referenced column
    before masking; the predicate-first scan resolves the predicate on
    dictionary codes and bitmap rows and gathers only the surviving
    rows.
    """
    specs: List[QuerySpec] = []
    day = START
    for _ in range(4 * n_repeats):
        week_end = min(day + _dt.timedelta(days=6), END)
        specs.extend(
            [
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    where={"proto": 17}, group_by=["service_port"],
                    aggregates=["bytes"],
                ),
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    where={"proto": [47, 50]},
                    aggregates=["bytes", "flows"], bucket="day",
                ),
            ]
        )
        day += _dt.timedelta(days=7)
        if day > END:
            day = START + _dt.timedelta(days=1)
    return specs


def _direct_sweep(store: FlowStore, specs: List[QuerySpec]):
    """Run a batch straight through the engine — no service, no LRU."""
    t0 = time.perf_counter()
    results = [execute_query(store, spec) for spec in specs]
    return results, time.perf_counter() - t0


def _run_batch(service: QueryService, specs: List[QuerySpec]):
    """Submit the whole batch, then collect results in order."""
    t0 = time.perf_counter()
    tickets = [service.submit(spec, timeout=600.0) for spec in specs]
    results = [ticket.result() for ticket in tickets]
    return results, time.perf_counter() - t0


def _rows(results) -> List[List[dict]]:
    return [r.rows for r in results]


def _latest_baseline(
    history: Dict[str, list], key: str, fast: bool
) -> Optional[float]:
    """The most recent recorded wall time for ``key`` at this fidelity."""
    for run in reversed(history.get("runs", [])):
        if bool(run.get("fast")) != fast:
            continue
        baseline = (run.get("wall_s") or {}).get(key)
        if baseline:
            return float(baseline)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true",
        help="smaller store and batch (CI smoke mode)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_results.json"),
        help="benchmark history file (default: %(default)s)",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero if the warm-cache sweep is slower than the "
             "latest recorded baseline by more than the threshold",
    )
    parser.add_argument(
        "--regression-threshold", type=float, default=0.50,
        metavar="FRACTION",
        help="allowed warm-cache slowdown vs. the recorded baseline "
             "(default: %(default)s; warm sweeps are short, so the "
             "gate is looser than run_all's)",
    )
    args = parser.parse_args(argv)

    fidelity = 0.2 if args.fast else 1.0
    n_repeats = 4 if args.fast else 12
    scenario = build_scenario()
    vantage = scenario.vantage(VANTAGE)
    walls: Dict[str, float] = {}
    problems: List[str] = []

    with tempfile.TemporaryDirectory(prefix="query-bench-") as tmp:
        t0 = time.perf_counter()
        flows = vantage.generate_flows(START, END, fidelity=fidelity)
        store = FlowStore(Path(tmp) / VANTAGE)
        n_partitions = store.write_range(flows, START, END)
        walls[f"{KEY}[build-store]"] = time.perf_counter() - t0
        print(
            f"store: {len(flows)} flows in {n_partitions} partitions "
            f"({walls[f'{KEY}[build-store]']:.3f} s to build)"
        )

        specs = _batch(n_repeats)
        with QueryService({VANTAGE: store}, workers=1,
                          queue_capacity=len(specs)) as service:
            serial, walls[f"{KEY}[cold-w1]"] = _run_batch(service, specs)
        with QueryService({VANTAGE: store}, workers=4,
                          queue_capacity=len(specs)) as service:
            parallel_results, walls[f"{KEY}[cold-w4]"] = _run_batch(
                service, specs
            )
            warm, walls[f"{KEY}[warm]"] = _run_batch(service, specs)
            stats = service.stats

        failed = sum(r.n_failed for r in serial + parallel_results + warm)
        if failed:
            problems.append(f"{failed} failed partition(s)")
        if _rows(serial) != _rows(parallel_results):
            problems.append("workers=4 rows differ from workers=1")
        if _rows(serial) != _rows(warm):
            problems.append("warm-cache rows differ from workers=1")
        misses_expected = 2 * len(specs)  # the two cold sweeps
        if stats.cache_hits < len(specs):
            problems.append(
                f"warm replay hit the cache only {stats.cache_hits}/"
                f"{len(specs)} times"
            )
        if stats.cache_misses > misses_expected:
            problems.append(
                f"{stats.cache_misses} cache misses for "
                f"{misses_expected} distinct executions"
            )

        # Encoding sweep: a selective filtered batch, replayed warm (a
        # cold pass primes the page cache).  The bitmap/dictionary scan
        # must read fewer bytes than a plain scan of every referenced
        # column over the same planned partitions.
        filtered = _filtered_batch(n_repeats)
        _direct_sweep(store, filtered)
        filtered_results, walls[f"{KEY}[filtered-v3]"] = _direct_sweep(
            store, filtered
        )
        if sum(r.n_failed for r in filtered_results):
            problems.append("filtered sweep had failed partitions")
        filtered_bytes = sum(r.bytes_read for r in filtered_results)
        plain_bytes = sum(
            store.open_partition(day).column_nbytes(
                spec.referenced_columns()
            )
            for spec in filtered
            for day in plan_query(store, spec).days
        )
        if not 0 < filtered_bytes < plain_bytes:
            problems.append(
                f"filtered sweep read {filtered_bytes} bytes vs. "
                f"{plain_bytes} for a plain scan; predicate pushdown is "
                f"not reducing I/O"
            )
        column_stats = store.column_stats()
        stored_ratio = (
            sum(int(e["stored_nbytes"]) for e in column_stats.values())
            / max(1, sum(int(e["raw_nbytes"])
                         for e in column_stats.values()))
        )
        colstore_block = {
            "queries": len(filtered),
            "filtered_bytes": int(filtered_bytes),
            "plain_scan_bytes": int(plain_bytes),
            "bytes_ratio": round(filtered_bytes / max(1, plain_bytes), 4),
            "stored_ratio": round(stored_ratio, 4),
        }
        print(
            f"encodings: {len(filtered)} filtered queries read "
            f"{filtered_bytes:,} bytes vs. {plain_bytes:,} for a plain "
            f"scan; columns store at {stored_ratio:.2f}x raw width"
        )

        # Scaling sweep: one scan-heavy multi-vantage batch through the
        # engine in all three execution modes.  The isp-ce store spans
        # 7 weeks; a second lower-fidelity vantage exercises scans over
        # more than one store in the same sweep.
        cores = os.cpu_count() or 1
        t0 = time.perf_counter()
        edu_flows = scenario.vantage("edu").generate_flows(
            START, END, fidelity=fidelity / 2
        )
        edu_store = FlowStore(Path(tmp) / "edu")
        edu_store.write_range(edu_flows, START, END)
        walls[f"{KEY}[build-edu-store]"] = time.perf_counter() - t0

        scale_batch = [
            (store, spec) for spec in _batch(n_repeats)
        ] + [
            (edu_store, spec)
            for spec in _scale_specs("edu", n_repeats)
        ]

        def _mode_sweep(pool):
            t0 = time.perf_counter()
            results = [
                execute_query(st, sp, pool=pool)
                for st, sp in scale_batch
            ]
            return results, time.perf_counter() - t0

        # Pools are persistent in production (one per service), so each
        # mode gets one untimed warm-up sweep: it primes the page cache,
        # spawns the workers, and fills their per-process store caches
        # before the steady-state measurement.
        _mode_sweep(None)
        scale_serial, walls[f"{KEY}[scale-serial]"] = _mode_sweep(None)
        with ThreadPoolExecutor(max_workers=cores) as thread_pool:
            _mode_sweep(thread_pool)
            scale_threads, walls[f"{KEY}[scale-threads]"] = _mode_sweep(
                thread_pool
            )
        prior_registry = obs.get_registry()
        registry = MetricsRegistry()
        try:
            with make_scan_pool(cores) as scan_pool:
                _mode_sweep(scan_pool)
                # meter only the timed sweep's shard/IPC traffic
                obs.set_registry(registry)
                scale_procs, walls[f"{KEY}[scale-procs]"] = _mode_sweep(
                    scan_pool
                )
                pool_info = scan_pool.describe()
        finally:
            obs.set_registry(prior_registry)
        counters = registry.snapshot()["counters"]

        if _rows(scale_threads) != _rows(scale_serial):
            problems.append("scale-threads rows differ from scale-serial")
        if _rows(scale_procs) != _rows(scale_serial):
            problems.append("scale-procs rows differ from scale-serial")
        if sum(r.n_failed for r in scale_serial + scale_threads
               + scale_procs):
            problems.append("scaling sweep had failed partitions")

        serial_wall = walls[f"{KEY}[scale-serial]"]
        threads_wall = walls[f"{KEY}[scale-threads]"]
        procs_wall = walls[f"{KEY}[scale-procs]"]
        scaling = {
            "cores": cores,
            "pool_kind": pool_info["kind"],
            "pool_width": pool_info["width"],
            "start_method": pool_info["start_method"],
            "queries": len(scale_batch),
            "ipc_bytes": int(counters.get("query.proc.ipc-bytes", 0)),
            "shards": int(counters.get("query.proc.shards", 0)),
            "speedup_vs_serial": round(serial_wall / procs_wall, 3),
            "speedup_vs_threads": round(threads_wall / procs_wall, 3),
        }
        print(
            f"scaling: {len(scale_batch)} queries on {cores} core(s) — "
            f"procs ({scaling['pool_kind']}) runs "
            f"{scaling['speedup_vs_serial']:.2f}x serial and "
            f"{scaling['speedup_vs_threads']:.2f}x threads; "
            f"{scaling['shards']} shards shipped "
            f"{scaling['ipc_bytes']:,} IPC bytes"
        )
        # The scaling gate is core-aware: a single-core host can only
        # check parity, 2+ cores must show processes winning, and 4+
        # cores must clear the paper-grade 2x bar.
        if args.fail_on_regression and scaling["pool_kind"] == "process":
            if cores >= 2 and procs_wall >= serial_wall:
                problems.append(
                    f"scale-procs {procs_wall:.3f} s not faster than "
                    f"serial {serial_wall:.3f} s on {cores} cores"
                )
            if cores >= 2 and procs_wall > threads_wall:
                problems.append(
                    f"scale-procs {procs_wall:.3f} s slower than "
                    f"threads {threads_wall:.3f} s on {cores} cores"
                )
            if cores >= 4 and scaling["speedup_vs_serial"] < 2.0:
                problems.append(
                    f"scale-procs only "
                    f"{scaling['speedup_vs_serial']:.2f}x serial on "
                    f"{cores} cores (process scatter-gather should "
                    f"clear 2x)"
                )

    for key, wall in walls.items():
        print(f"{key:55s} {wall:8.3f} s")
    w1 = walls[f"{KEY}[cold-w1]"]
    w4 = walls[f"{KEY}[cold-w4]"]
    warm_wall = walls[f"{KEY}[warm]"]
    print(
        f"{len(specs)} queries: workers=4 runs {w1 / w4:.2f}x the "
        f"serial sweep; warm cache replays at "
        f"{len(specs) / warm_wall:.0f} q/s ({w1 / warm_wall:.0f}x)"
    )

    history_path = Path(args.output)
    if history_path.exists():
        payload = json.loads(history_path.read_text())
    else:
        payload = {"runs": []}

    if args.fail_on_regression:
        for gated in (f"{KEY}[warm]", f"{KEY}[filtered-v3]"):
            recorded = _latest_baseline(payload, gated, args.fast)
            if recorded is None:
                print(f"no recorded {gated} baseline at this fidelity; "
                      f"skipping its regression gate")
                continue
            measured = walls[gated]
            limit = recorded * (1.0 + args.regression_threshold)
            print(
                f"regression gate: {gated} {measured:.3f} s vs. "
                f"recorded {recorded:.3f} s (limit {limit:.3f} s)"
            )
            if measured > limit:
                problems.append(
                    f"{gated} sweep {measured:.3f} s exceeds recorded "
                    f"baseline {recorded:.3f} s by more than "
                    f"{args.regression_threshold:.0%}"
                )

    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    status = 1 if problems else 0

    payload["runs"].append(
        {
            "timestamp": round(time.time(), 3),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "fast": bool(args.fast),
            "exit_status": status,
            "wall_s": {k: round(v, 4) for k, v in sorted(walls.items())},
            "scaling": scaling,
            "colstore": colstore_block,
        }
    )
    history_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"appended run to {history_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
