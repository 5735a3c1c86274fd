"""Compare two sets of benchmark records, only where their hosts match.

Usage, from the root of the repository::

    python3 perfbench/compare.py BASE.log NEW.log

Each file holds the saved standard output of ``run.py`` runs; their
``record`` lines are read.  For every workload present in both, the
script prints each metric's median and quartiles per side and the change of
the medians, marking end-to-end metrics that got worse by more than their
bound in ``BENCHMARK.json``.  Records from hosts with different
fingerprints are never compared.  Exits 1 when a bound is exceeded.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> List[dict]:
    records = []
    for line in path.read_text().splitlines():
        if line.startswith("record "):
            records.append(json.loads(line[len("record "):]))
    return records


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def compare(base: List[dict], new: List[dict], bounds: Dict[str, dict]) -> int:
    worse = 0
    for workload in sorted({r["workload"] for r in base} &
                           {r["workload"] for r in new}):
        sides = [[r for r in records if r["workload"] == workload
                  and r["trace"] == 0] for records in (base, new)]
        hosts = {r["host"]["id"] for side in sides for r in side}
        if not all(sides):
            continue
        if len(hosts) != 1:
            print(f"{workload}: not compared, host fingerprints differ "
                  f"({', '.join(sorted(hosts))})")
            continue
        print(f"{workload}:")
        for name in sorted(sides[0][0]["named"]):
            values = [[r["named"][name]["value"] for r in side
                       if name in r["named"]] for side in sides]
            if not all(values):
                continue
            old, cur = (statistics.median(v) for v in values)
            change = (cur - old) / old if old else 0.0
            mark = ""
            bound = bounds.get(name)
            if bound is not None:
                sign = 1.0 if bound["better"] == "lower" else -1.0
                if sign * change > bound["bound"]:
                    mark = f"  WORSE than bound {bound['bound']:.0%}"
                    worse += 1
            print(f"  {name:40s} {_spread(values[0])} -> "
                  f"{_spread(values[1])}  {change:+.1%}{mark}")
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in definition["end_to_end"]}
    return compare(load(Path(argv[0])), load(Path(argv[1])), bounds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
