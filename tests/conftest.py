"""Shared fixtures.

The scenario and the expensive flow tables are session-scoped: they are
deterministic, read-only inputs, so sharing them across tests is safe
and keeps the suite fast.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from repro import build_scenario, timebase
from repro.experiments import PipelineConfig
from repro.query.spec import EXACT_AGGREGATE_COLUMNS


@pytest.fixture(scope="session")
def scenario():
    """The default synthetic world."""
    return build_scenario()


@pytest.fixture(scope="session")
def fast_config():
    """Low-fidelity pipeline configuration for tests."""
    return PipelineConfig.fast()


@pytest.fixture(scope="session")
def isp_base_week_flows(scenario):
    """ISP-CE flows for the macro base week (Feb 19-25)."""
    return scenario.isp_ce.generate_week_flows(
        timebase.MACRO_WEEKS["base"], fidelity=0.5
    )


@pytest.fixture(scope="session")
def isp_stage1_week_flows(scenario):
    """ISP-CE flows for the macro stage-1 week (Mar 18-24)."""
    return scenario.isp_ce.generate_week_flows(
        timebase.MACRO_WEEKS["stage1"], fidelity=0.5
    )


@pytest.fixture(scope="session")
def edu_capture_flows(scenario, fast_config):
    """EDU flows for the full 72-day capture period."""
    return scenario.edu.generate_flows(
        timebase.EDU_CAPTURE_START,
        timebase.EDU_CAPTURE_END,
        fidelity=fast_config.edu_fidelity,
    )


def _reference_rows(flows, spec):
    """``spec``'s exact answer, computed row by row from an in-memory table.

    The correctness reference for store-backed queries: no partitions,
    sidecars, encodings or bitmaps — just the predicates as masks and a
    dict of per-group sums.  Exact aggregates only.
    """
    hours = flows.column("hour")
    mask = (hours >= timebase.hour_index(spec.start, 0)) & (
        hours < timebase.hour_index(spec.end, 0) + 24
    )
    for predicate in spec.where:
        keys = flows.key_array(predicate.column)
        if predicate.op == "range":
            lo, hi = predicate.values
            mask &= (keys >= lo) & (keys <= hi)
        else:
            mask &= np.isin(keys, predicate.values)
    table = flows.filter(mask)
    key_columns = []
    if spec.bucket == "hour":
        key_columns.append(table.column("hour").tolist())
    elif spec.bucket == "day":
        key_columns.append([
            timebase.day_index_to_date(hour // 24).isoformat()
            for hour in table.column("hour").tolist()
        ])
    key_columns.extend(table.key_array(key).tolist() for key in spec.group_by)
    totals = {}
    for i, group in enumerate(zip(*key_columns) if key_columns
                              else [()] * len(table)):
        sums = totals.setdefault(group, dict.fromkeys(spec.aggregates, 0))
        for aggregate in spec.aggregates:
            sums[aggregate] += 1 if aggregate == "flows" else int(
                table.column(EXACT_AGGREGATE_COLUMNS[aggregate])[i]
            )
    return [
        {**dict(zip(spec.key_names, group)), **totals[group]}
        for group in sorted(totals)
    ]


@pytest.fixture(scope="session")
def reference_rows():
    """The in-memory query reference (see :func:`_reference_rows`)."""
    return _reference_rows
