"""Cold-start import guard: ``repro query`` loads only what it runs.

A one-shot ``repro query`` pays its package imports on every call, so
the query path must not pull in the experiment registry (and scipy
behind it), the synthetic world, or the metrics HTTP server.  Each
check runs in a fresh interpreter, where ``sys.modules`` shows exactly
what the command imported.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flows.store import FlowStore
from repro.query import QuerySpec, execute_query

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the query path must leave unloaded.
FORBIDDEN = (
    "scipy",
    "repro.experiments",
    "repro.synth.scenario",
    "repro.netbase",
    "repro.dns",
    "http.server",
)

_QUERY_CHILD = """
import contextlib, io, json, sys
import repro.cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "stdout": out.getvalue(),
    "modules": sorted(sys.modules),
}))
"""


def _run_child(script: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def store_dir(scenario, tmp_path_factory):
    start, end = dt.date(2020, 3, 2), dt.date(2020, 3, 4)
    flows = scenario.vantage("isp-ce").generate_flows(
        start, end, fidelity=0.05
    )
    root = tmp_path_factory.mktemp("cold") / "isp-ce"
    FlowStore(root).write_range(flows, start, end)
    return root


def test_query_json_imports_no_experiment_stack(store_dir):
    child = _run_child(
        _QUERY_CHILD,
        "query", "--store", str(store_dir),
        "--start", "2020-03-02", "--end", "2020-03-04",
        "--where", "proto=6", "--group-by", "transport",
        "--agg", "bytes,flows", "--json",
    )
    assert child["code"] == 0
    answer = json.loads(child["stdout"])
    spec = QuerySpec.build(
        "isp-ce", "2020-03-02", "2020-03-04", where={"proto": 6},
        group_by=["transport"], aggregates=["bytes", "flows"],
    )
    reference = execute_query(FlowStore(store_dir), spec)
    assert answer["fingerprint"] == spec.fingerprint()
    assert answer["rows"] == json.loads(
        json.dumps(reference.rows, default=int)
    )
    assert answer["rows"], "the guard needs a query that matches rows"
    loaded = set(child["modules"])
    leaked = sorted(
        name for name in loaded
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )
    assert leaked == []
    assert "repro.query" in loaded


def test_lazy_package_exports_resolve():
    child = _run_child("""
import json, sys
import repro.synth.spec
spec_only = sorted(sys.modules)
from repro import build_scenario, Scenario
import repro.synth
import repro.synth.scenario as scenario
import repro.obs as obs
print(json.dumps({
    "spec_only": spec_only,
    "build_scenario": build_scenario is scenario.build_scenario,
    "Scenario": Scenario is scenario.Scenario,
    "ScenarioSpec": repro.synth.ScenarioSpec is scenario.ScenarioSpec,
    "build_manifest": obs.build_manifest.__module__,
    "dir": "build_scenario" in dir(repro.synth),
}))
""")
    assert "repro.synth.scenario" not in child["spec_only"]
    assert "repro.netbase" not in child["spec_only"]
    assert child["build_scenario"] is True
    assert child["Scenario"] is True
    assert child["ScenarioSpec"] is True
    assert child["build_manifest"] == "repro.obs.manifest"
    assert child["dir"] is True


def test_unknown_package_attribute_raises():
    import repro
    import repro.obs
    import repro.synth

    for package in (repro, repro.synth, repro.obs):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
