"""Chrome-trace export of a *sweep itself*: one slice per cell per worker.

The engine-timeline exporter (:mod:`repro.viz.chrome_trace`) shows what
happens *inside* one simulated step; this module shows what happened to
the sweep that produced it — which worker computed which cell, and
when.  Load the output at ``chrome://tracing`` or
https://ui.perfetto.dev: every worker becomes a process row and every
computed cell a slice on it, so idle workers and a long tail show at a
glance.

Two data sources, merged:

- **Timing sidecars** (``<key>.time.json``, written by
  :func:`repro.search.service.run_sweep` for every cell it computes):
  the cell's search wall-clock, its start time and the process that
  searched it — ``pool-<pid>`` for a pool worker, ``coordinator`` for
  an in-process search.
- **Obs spans** (metric snapshots from ``--metrics-out``, see
  :mod:`repro.obs`): slices on their actor's lane.  Spans are
  epoch-anchored, so an in-process sweep's ``search.cell`` spans line
  up with the ``coordinator`` lane's cell slices.

Both sources are advisory.  Every reader tolerates the debris an
interrupted sweep leaves behind — truncated snapshot lines, half-written
or foreign JSON, nonsense field types, NaN or infinite times — by
skipping what it cannot read: a trace render must never fail because a
sweep did not end cleanly, and what it writes is always strict JSON.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from repro.obs import read_snapshots
from repro.search.service.checkpoint import CheckpointStore

__all__ = ["sweep_trace", "sweep_trace_events", "write_sweep_trace"]

_SECONDS_TO_US = 1e6


def _as_float(value) -> float | None:
    """Coerce an advisory payload field; malformed values become None.

    NaN and the infinities are malformed too: ``json.loads`` accepts
    them, but a trace holding one loads in no viewer.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
        if math.isfinite(number):
            return number
    return None


def _collect_slices(
    checkpoint_dir: str | os.PathLike,
    metrics: str | os.PathLike | None = None,
) -> list[dict]:
    """Per-cell spans ``{worker, key, start, end, name, source}``.

    Times are epoch seconds.
    """
    slices: list[dict] = []
    store = CheckpointStore(checkpoint_dir)
    suffix = ".time.json"
    sidecar_keys = sorted(
        p.name[: -len(suffix)]
        for p in Path(checkpoint_dir).glob(f"*{suffix}")
        if not p.name.startswith(".")
    )
    for key in sidecar_keys:
        record = store.load_timing_record(key)
        if record is None:
            continue
        worker = record.get("worker")
        started = _as_float(record.get("started_at"))
        seconds = _as_float(record.get("seconds"))
        if worker is None or started is None or seconds is None:
            continue
        outcome = store.load(key)
        slices.append({
            "worker": str(worker),
            "key": key,
            "start": started,
            "end": started + seconds,
            "name": (
                f"{outcome.method.value} B={outcome.batch_size}"
                if outcome is not None
                else key[:10]
            ),
            "source": "sidecar",
        })

    if metrics is not None:
        for snapshot in read_snapshots(metrics):
            actor = str(snapshot.get("actor", "?"))
            for span in snapshot.get("spans", []):
                if not isinstance(span, dict):
                    continue
                start = _as_float(span.get("start"))
                end = _as_float(span.get("end"))
                name = span.get("name")
                if start is None or end is None or not isinstance(name, str):
                    continue
                attrs = span.get("attrs")
                slices.append({
                    "worker": actor,
                    "key": str(
                        (attrs or {}).get("key", "")
                        if isinstance(attrs, dict)
                        else ""
                    ),
                    "start": start,
                    "end": end,
                    "name": name,
                    "source": "obs",
                })
    return slices


def sweep_trace_events(
    checkpoint_dir: str | os.PathLike,
    metrics: str | os.PathLike | None = None,
) -> list[dict]:
    """Trace Event Format dicts for one sweep directory.

    ``metrics`` (a ``--metrics-out`` directory or one snapshot file)
    merges obs spans in as slices on their actor's lane.
    """
    slices = _collect_slices(checkpoint_dir, metrics)
    if not slices:
        return []
    t0 = min(s["start"] for s in slices)
    for s in slices:
        s["ts"] = (s["start"] - t0) * _SECONDS_TO_US
        s["dur"] = max(0.0, s["end"] - s["start"]) * _SECONDS_TO_US
    # Finite times can still overflow once added, shifted and scaled.
    slices = [
        s for s in slices if math.isfinite(s["ts"]) and math.isfinite(s["dur"])
    ]
    workers = sorted({s["worker"] for s in slices})
    pid_of = {worker: pid for pid, worker in enumerate(workers)}

    out: list[dict] = []
    for worker, pid in pid_of.items():
        out.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"worker {worker}"},
        })
        out.append({
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        })
        out.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
            "args": {"name": "cells"},
        })
    for s in slices:
        out.append({
            "ph": "X",
            "name": s["name"],
            "cat": "obs" if s["source"] == "obs" else "cell",
            "pid": pid_of[s["worker"]],
            "tid": 0,
            "ts": s["ts"],
            "dur": s["dur"],
            "args": {"key": s["key"], "source": s["source"]},
        })
    return out


def sweep_trace(
    checkpoint_dir: str | os.PathLike,
    metrics: str | os.PathLike | None = None,
) -> dict:
    """A complete JSON-serializable trace document for one sweep."""
    return {
        "traceEvents": sweep_trace_events(checkpoint_dir, metrics),
        "displayTimeUnit": "ms",
    }


def write_sweep_trace(
    path: str | os.PathLike,
    checkpoint_dir: str | os.PathLike,
    metrics: str | os.PathLike | None = None,
) -> Path:
    """Write the sweep trace file; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(sweep_trace(checkpoint_dir, metrics), allow_nan=False)
    )
    return path
