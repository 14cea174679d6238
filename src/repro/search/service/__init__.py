"""Distributed sweep service: resumable grid search over pluggable backends.

The subsystem behind the Figure 7 / Appendix E grids at production
scale.  :func:`run_sweep` is the single entry point; everything else is
its machinery:

- :mod:`~repro.search.service.serialize` — exact JSON round-trips for
  ``SearchOutcome`` and friends, plus content-hash cell keys.
- :mod:`~repro.search.service.checkpoint` — per-cell checkpoint files,
  written atomically, corrupt files rejected cleanly.
- :mod:`~repro.search.service.executors` — serial, multiprocessing
  (fork *and* spawn), and the file-based work queue where independent
  workers claim cells via atomic renames.
- :mod:`~repro.search.service.queue` / ``worker`` — the shared-FS claim
  protocol and the ``python -m repro.search.service.worker`` process.
- :mod:`~repro.search.service.progress` — progress/ETA lines.
"""

from repro.search.cell import DEFAULT_SETTINGS, SearchSettings, SweepCell
from repro.search.service.checkpoint import CheckpointStore
from repro.search.service.executors import (
    Executor,
    FileQueueExecutor,
    MultiprocessingExecutor,
    SerialExecutor,
    SweepError,
)
from repro.search.service.memo import MANIFEST_NAME, ManifestEntry, MemoStore
from repro.search.service.progress import ProgressReporter
from repro.search.service.queue import ClaimedCell, FileWorkQueue, LeaseHeartbeat
from repro.search.service.serialize import (
    calibration_from_json,
    calibration_to_json,
    cell_key,
    group_key,
    objective_from_json,
    objective_to_json,
    outcome_from_json,
    outcome_to_json,
)
from repro.search.service.service import BACKENDS, SweepOptions, run_sweep

__all__ = [
    "BACKENDS",
    "MANIFEST_NAME",
    "CheckpointStore",
    "ClaimedCell",
    "DEFAULT_SETTINGS",
    "Executor",
    "FileQueueExecutor",
    "FileWorkQueue",
    "LeaseHeartbeat",
    "ManifestEntry",
    "MemoStore",
    "MultiprocessingExecutor",
    "ProgressReporter",
    "SearchSettings",
    "SerialExecutor",
    "SweepCell",
    "SweepError",
    "SweepOptions",
    "calibration_from_json",
    "calibration_to_json",
    "cell_key",
    "group_key",
    "objective_from_json",
    "objective_to_json",
    "outcome_from_json",
    "outcome_to_json",
    "run_sweep",
]
