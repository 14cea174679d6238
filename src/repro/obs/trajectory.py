"""Perf-trajectory recording: append benchmark results to ``BENCH_*.json``.

The repo had no recorded perf history — every speedup claim lived only
in the moment its benchmark ran.  A trajectory file is an append-only
JSON list of entries, one per benchmark execution::

    {
      "bench": "search_52B_depth_first_b64",
      "commit": "<git hash or 'unknown'>",
      "recorded_at": 1754650000.0,
      "cell": {"panel": "52B", "method": "DEPTH_FIRST", "batch": 64},
      "seconds": 0.31,
      "counters": {"n_tried": 35, "stage_misses": 0, ...}
    }

``benchmarks/test_engine_perf.py`` records its gated cells here — the
work counts it asserts on, plus CPU seconds as data only — and CI
uploads the file as an artifact, so the perf history accumulates across
commits.  Writing is best-effort and tolerant: a corrupt existing file
is replaced rather than crashing the benchmark that tried to append.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

from repro.obs import clock

__all__ = ["TRAJECTORY_FORMAT", "current_commit", "load_trajectory", "record_entry"]

#: Version tag carried in every trajectory file.
TRAJECTORY_FORMAT = 1


def current_commit(repo_root: str | os.PathLike | None = None) -> str:
    """The current git commit hash, or ``"unknown"``.

    Prefers ``GITHUB_SHA`` (set by CI even in shallow/detached
    checkouts), then ``git rev-parse HEAD``.
    """
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_trajectory(path: str | os.PathLike) -> dict:
    """The trajectory file as ``{"format": ..., "entries": [...]}``.

    Missing or corrupt files yield an empty trajectory — the recorder
    must never be the reason a benchmark fails.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {"format": TRAJECTORY_FORMAT, "entries": []}
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        return {"format": TRAJECTORY_FORMAT, "entries": []}
    payload.setdefault("format", TRAJECTORY_FORMAT)
    return payload


def record_entry(
    path: str | os.PathLike,
    *,
    bench: str,
    seconds: float,
    cell: dict | None = None,
    counters: dict | None = None,
    commit: str | None = None,
    repo_root: str | os.PathLike | None = None,
) -> dict:
    """Append one entry to the trajectory at ``path``; returns the entry.

    One entry per (bench, commit): re-running a benchmark on the same
    commit replaces its previous measurement instead of growing the
    file, so local reruns stay idempotent while every new commit adds a
    trajectory point.  The file is rewritten whole (entries stay a valid
    JSON list at every point in history); concurrent benchmark processes
    are not expected — pytest runs the benchmark module serially.
    """
    trajectory = load_trajectory(path)
    entry = {
        "bench": bench,
        "commit": commit if commit is not None else current_commit(repo_root),
        "recorded_at": clock.wall(),
        "cell": dict(cell) if cell else None,
        "seconds": seconds,
        "counters": dict(counters) if counters else {},
    }
    trajectory["entries"] = [
        e
        for e in trajectory["entries"]
        if not (
            isinstance(e, dict)
            and e.get("bench") == entry["bench"]
            and e.get("commit") == entry["commit"]
        )
    ]
    trajectory["entries"].append(entry)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return entry
