"""Reproduction of "The Lockdown Effect" (IMC 2020).

Public API:

* :func:`repro.synth.build_scenario` — construct the synthetic world,
* :mod:`repro.core` — the paper's analyses (one module per figure
  family),
* :mod:`repro.experiments` — end-to-end experiment registry and
  runners regenerating every table and figure,
* :mod:`repro.flows` / :mod:`repro.netbase` / :mod:`repro.dns` — the
  substrates (flow tables, network metadata, domain corpus).

``Scenario`` and ``build_scenario`` are exported lazily (PEP 562): the
first access imports :mod:`repro.synth.scenario`, so importing a
subpackage such as :mod:`repro.obs` or :mod:`repro.query` does not
import the synthetic world's modules.
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

__all__ = ["Scenario", "build_scenario", "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "Scenario": "repro.synth.scenario",
    "build_scenario": "repro.synth.scenario",
})
