"""repro.obs — unified observability: metrics, spans, reports, trajectories.

See ``docs/observability.md`` for the full contract.  The short version:

- Instrument with :func:`get_recorder` (no-op unless a registry is
  installed; hot loops gate per-iteration work on ``recorder.enabled``).
- Collect with :func:`recording` / ``--metrics-out DIR`` (one JSONL
  file per actor).
- Aggregate with :func:`build_report` / ``repro-experiments report``.
- Record perf history with :mod:`repro.obs.trajectory`.

Metrics never enter checkpoint content hashes.
"""

from repro.obs.registry import (
    NULL_RECORDER,
    SNAPSHOT_FORMAT,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    get_recorder,
    install,
    merge_snapshot,
    read_snapshots,
    recording,
    snapshot_from_json,
    uninstall,
    write_snapshot_line,
)
from repro.obs.report import AttributionReport, build_report

__all__ = [
    "NULL_RECORDER",
    "SNAPSHOT_FORMAT",
    "AttributionReport",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "build_report",
    "get_recorder",
    "install",
    "merge_snapshot",
    "read_snapshots",
    "recording",
    "snapshot_from_json",
    "uninstall",
    "write_snapshot_line",
]
