"""Synthetic trace generation.

The paper's datasets are proprietary flow traces; this subpackage
synthesizes their closest equivalents from an explicit behavioral
model (DESIGN.md §2):

* :mod:`repro.synth.diurnal` — parametric 24-hour load shapes,
* :mod:`repro.synth.profiles` — per-application traffic profiles with
  lockdown responses,
* :mod:`repro.synth.vantage` — vantage-point generators (ISP-CE,
  IXP-CE/SE/US, EDU, mobile operator, roaming IPX),
* :mod:`repro.synth.flowgen` — samples flow tables consistent with the
  hourly intensity model,
* :mod:`repro.synth.linkutil` — per-member link-utilization series,
* :mod:`repro.synth.events` — composable scenario events (demand
  shifts, outages, holidays, second waves, ...) with ramp envelopes,
* :mod:`repro.synth.spec` — declarative :class:`ScenarioSpec` worlds
  with canonical fingerprints and blind-check expectations,
* :mod:`repro.synth.scenario` — one-stop construction of a coherent
  world (AS registry, prefixes, ports, DNS corpus, members, vantages).

The analysis code never reads these models' parameters; it sees only
flows and hourly aggregates, and must re-derive the planted shifts.

The names below are exported lazily (PEP 562): importing one submodule
(say :mod:`repro.synth.spec` for ``DEFAULT_SEED``) does not import
:mod:`repro.synth.scenario` and the network/DNS substrates behind it.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Expectation",
    "Scenario",
    "ScenarioSpec",
    "build_scenario",
    "spec_from_dict",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "Expectation": "repro.synth.spec",
    "Scenario": "repro.synth.scenario",
    "ScenarioSpec": "repro.synth.spec",
    "build_scenario": "repro.synth.scenario",
    "spec_from_dict": "repro.synth.spec",
})
