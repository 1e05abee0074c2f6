"""Shared plumbing: locations, statistics, fingerprint and result records."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch files (SQLite databases) and result records; both ignored by git.
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"


class SourceMissing(RuntimeError):
    """The benchmark runs outside a checkout that holds the program."""


def use_source() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics -----------------------------------------------------------------
def median(samples: list[float]) -> float:
    return statistics.median(samples)


def tail(samples: list[float], min_above: int = 10) -> tuple[float, float, int]:
    """The value at the highest percentile that leaves ``min_above`` samples
    above it: ``(value, percentile, sample_count)``.

    With ``n`` sorted samples that is the one at index ``n - 1 - min_above``
    (nearest rank); fewer than ``min_above + 1`` samples give the minimum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = max(0, n - 1 - min_above)
    pct = 100.0 * index / (n - 1) if n > 1 else 0.0
    return ordered[index], round(pct, 2), n


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- environment fingerprint ----------------------------------------------------
def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository
    (the search never climbs above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint(workload: str, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "params": params,
    }


#: Fingerprint fields that must match for two records to be comparable
#: (commit and seed differ between the runs of a comparison by design).
COMPARABLE_KEYS = ("nproc", "python", "platform", "workload", "params")


def comparable(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Fingerprint fields on which two records differ (empty = comparable)."""
    return [key for key in COMPARABLE_KEYS if a.get(key) != b.get(key)]


def write_record(record: dict[str, Any], stem: str) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path
