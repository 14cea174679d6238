"""Sweep service: resumable grid search on a crash-tolerant process pool.

The subsystem behind the Figure 7 / Appendix E grids at production
scale.  :func:`run_sweep` is the single entry point; everything else is
its machinery:

- :mod:`~repro.search.service.serialize` — exact JSON round-trips for
  ``SearchOutcome`` and friends, plus content-hash cell keys.
- :mod:`~repro.search.service.checkpoint` — per-cell checkpoint files,
  written atomically, corrupt files rejected cleanly, and the timing
  sidecars ``sweep-trace`` draws.
- :mod:`~repro.search.service.executors` — :func:`run_cells`, the
  in-process loop and the process pool (fork *and* spawn), which reruns
  a dead worker's cells and charges a loss only to a cell that was
  alone in flight, up to ``MAX_RETRIES`` times.
- :mod:`~repro.search.service.memo` — the checkpoint store plus the
  manifest the planner reads.
- :mod:`~repro.search.service.progress` — progress lines with a
  cell-count ETA.
"""

from repro.search.cell import DEFAULT_SETTINGS, SearchSettings, SweepCell
from repro.search.service.checkpoint import CheckpointStore
from repro.search.service.executors import MAX_RETRIES, SweepError, run_cells
from repro.search.service.memo import MANIFEST_NAME, ManifestEntry, MemoStore
from repro.search.service.progress import ProgressReporter
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
from repro.search.service.service import SweepOptions, run_sweep

__all__ = [
    "DEFAULT_SETTINGS",
    "MANIFEST_NAME",
    "MAX_RETRIES",
    "CheckpointStore",
    "ManifestEntry",
    "MemoStore",
    "ProgressReporter",
    "SearchSettings",
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
    "run_cells",
    "run_sweep",
]
