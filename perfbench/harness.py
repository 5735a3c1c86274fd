"""Statistics, host provenance and the result record of one benchmark run.

Standard library only: this module is imported before the program, so
importing it must not pull in ``numpy`` or ``repro`` (their import time is
part of the measured set-up).
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, by :func:`tail_percentile`.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(1, math.ceil(pct / 100.0 * n - 1e-9))


def tail_percentile(
    values: Sequence[float],
    ladder: Sequence[float] = PERCENTILE_LADDER,
    beyond: int = MIN_BEYOND,
) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` for the highest percentile in ``ladder`` with at
    least ``beyond`` samples above it, or ``None`` when even the lowest
    rung has fewer."""
    for pct in ladder:
        if samples_beyond(len(values), pct) >= beyond:
            return pct, percentile(values, pct)
    return None


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or of its largest waited-for
    child) in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> Dict[str, object]:
    """What must match before two runs' numbers are compared."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    host = {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    digest = hashlib.sha256(
        json.dumps(host, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return {**host, "id": digest}


def git_sha(root: Path) -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree.

    Only ``root/.git`` is consulted, so a checkout copied into some other
    repository never reports that repository's commit.
    """
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def tree_bytes(root: Path) -> int:
    """Bytes of every file under ``root``."""
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def digest_rows(rows: List[Dict[str, object]]) -> str:
    """Order-sensitive digest of query result rows."""
    payload = json.dumps(rows, sort_keys=True, default=int)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
