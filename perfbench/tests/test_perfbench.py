"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import datetime as dt
import json
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench import harness, run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ----------------------------------------------------------


@pytest.mark.parametrize("n, pct", [
    (2000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = [float(i) for i in range(n)]
    got_pct, value = harness.tail_percentile(values)
    assert got_pct == pct
    assert sum(v > value for v in values) >= harness.MIN_BEYOND
    higher = [p for p in harness.PERCENTILE_LADDER if p > pct]
    assert all(
        harness.samples_beyond(n, p) < harness.MIN_BEYOND for p in higher
    )


def test_tail_percentile_needs_enough_samples():
    assert harness.tail_percentile([1.0] * 19) is None


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert harness.percentile(values, 50) == 3.0
    assert harness.percentile(values, 100) == 5.0
    assert harness.percentile(values, 1) == 1.0
    assert harness.median([4.0, 1.0, 3.0, 2.0]) == 2.5


# -- span arithmetic ----------------------------------------------------------


def _span(id_, name, start, end, parent=None):
    return spans.Span(id=id_, name=name, start=start, end=end, parent=parent)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(1, "plan", 0.0, 10.0),
        # Two overlapping children cover [1, 5]; a third sticks out past
        # the parent's end and only [8, 10] of it counts.
        _span(2, "scan", 1.0, 3.0, parent=1),
        _span(3, "scan", 2.0, 5.0, parent=1),
        _span(4, "scan", 8.0, 12.0, parent=1),
        # A grandchild is covered by its own parent, not by "plan".
        _span(5, "open", 2.5, 2.7, parent=3),
    ]
    assert spans.self_s(recorded, "plan") == pytest.approx(4.0)
    assert spans.self_s(recorded, "scan") == pytest.approx(
        2.0 + (3.0 - 0.2) + 4.0
    )


def test_busy_time_counts_recursive_spans_once():
    recorded = [
        _span(1, "fetch", 0.0, 4.0),
        _span(2, "other", 1.0, 3.0, parent=1),
        _span(3, "fetch", 1.5, 2.5, parent=2),
        _span(4, "fetch", 5.0, 6.0),
    ]
    assert spans.busy_s(recorded, "fetch") == pytest.approx(5.0)


def test_tracer_nests_spans_and_shares_the_operation_id():
    tracer = spans.Tracer()
    with tracer.span("op", op=7) as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id
    assert inner.op == 7
    assert outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- request streams ----------------------------------------------------------


def test_oneshot_queries_are_a_function_of_the_seed():
    first = workloads.oneshot_queries(5, 9)
    assert first == workloads.oneshot_queries(5, 9)
    assert first != workloads.oneshot_queries(6, 9)
    kinds = [kind for kind, _, _ in first]
    assert sorted(set(kinds)) == sorted(workloads.ONESHOT_SHAPES)


def test_oneshot_counts_a_hung_or_garbled_child_as_a_failure(
        tmp_path, monkeypatch):
    calls = []

    def fake_run(command, **kwargs):
        calls.append(command)
        time.sleep(0.01)
        if len(calls) % 2:
            raise subprocess.TimeoutExpired(command, kwargs["timeout"])
        return subprocess.CompletedProcess(command, 0, "Traceback", "")

    monkeypatch.setattr(workloads.subprocess, "run", fake_run)
    workload = workloads.OneshotWorkload(1, 1, tmp_path, ROOT)
    workload.store = tmp_path / "store"
    result = workload.measure(0.1)
    assert result.ops == len(calls) >= 2
    assert result.failed == result.attempted == result.ops
    assert len(result.latencies) == result.ops
    assert any("no answer within" in note for note in result.notes)
    assert any("not JSON" in note for note in result.notes)


# -- wrappers -----------------------------------------------------------------


def _patched_attributes():
    from repro.core import appclass
    from repro.experiments import base
    from repro.flows import colstore, encodings, store
    from repro.query import engine, service
    from repro.synth import datasets, vantage
    import repro.query

    return {
        "generate_flows": vantage.VantagePoint.__dict__["generate_flows"],
        "fetch": datasets.DatasetCache.__dict__["fetch"],
        "write_range": store.FlowStore.__dict__["write_range"],
        "write_day": store.FlowStore.__dict__["write_day"],
        "open_partition": store.FlowStore.__dict__["open_partition"],
        "select": appclass.AppClass.__dict__["select"],
        "submit": service.QueryService.__dict__["submit"],
        "write_partition": colstore.write_partition,
        "encode_column": encodings.encode_column,
        "scan_partition": engine.scan_partition,
        "plan_query": engine.plan_query,
        "execute_plan": engine.execute_plan,
        "execute_query": engine.execute_query,
        "package_execute_query": repro.query.execute_query,
        "runners": {k: s.runner for k, s in base.REGISTRY.items()},
    }


def test_wrappers_are_removed_after_the_traced_run():
    before = _patched_attributes()
    with spans.instrument(spans.Tracer()):
        during = _patched_attributes()
    after = _patched_attributes()
    assert after == before
    for name, original in before.items():
        assert during[name] != original, name


def test_wrappers_are_removed_when_the_run_raises():
    before = _patched_attributes()
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer()):
            raise RuntimeError("boom")
    assert _patched_attributes() == before


def test_traced_query_links_pool_scans_to_their_plan(tmp_path):
    from repro.flows.store import FlowStore
    from repro.query import QuerySpec, execute_query
    from repro.synth.scenario import build_scenario

    day = dt.date(2020, 3, 2)
    last = day + dt.timedelta(days=2)
    table = build_scenario(3).vantage("edu").generate_flows(
        day, last, fidelity=0.05
    )
    store = FlowStore(tmp_path / "edu")
    store.write_range(table, day, last)
    spec = QuerySpec.build("edu", day, last, group_by=["proto"])
    tracer = spans.Tracer()
    with spans.instrument(tracer), ThreadPoolExecutor(2) as pool:
        with tracer.span("op", op=1):
            execute_query(store, spec, pool=pool)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (plan,) = by_name["query.engine.execute_plan"]
    scans = by_name["query.engine.scan_partition"]
    assert len(scans) == 3
    assert all(scan.parent == plan.id and scan.op == 1 for scan in scans)
    metrics = spans.layer_metrics(tracer.spans, 1, [])
    assert metrics["query.engine.scan_partition.calls"] == 3
    assert 0.0 <= metrics["query.engine.merge.self_s"] <= plan.duration


def test_traced_spans_are_written_out(tmp_path):
    tracer = spans.Tracer()
    with tracer.span("op", op=3):
        with tracer.span("inner") as inner:
            inner.attrs["rows"] = 5.0
    path = tmp_path / "spans" / "paper-seed1.jsonl"
    run._write_spans(tracer, path)
    written = [json.loads(line) for line in path.read_text().splitlines()]
    assert [s["name"] for s in written] == ["op", "inner"]
    assert written[1]["parent"] == written[0]["id"]
    assert all(s["op"] == 3 for s in written)
    assert written[1]["attrs"] == {"rows": 5.0}
    for span in written:
        assert span["start"] <= span["end"]


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_names_every_emitted_metric():
    from repro.experiments.base import REGISTRY
    import repro.experiments  # noqa: F401

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == \
        run.END_TO_END
    expected = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    expected.update({f"experiments.{i}.busy_s": "s" for i in REGISTRY})
    assert {m["name"]: m["unit"] for m in definition["per_layer"]} == expected
    assert {w["name"] for w in definition["workloads"]} == \
        set(workloads.WORKLOADS)


def test_runner_refuses_a_tree_without_the_program(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "paper", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
