"""End-to-end smoke run of the sweep service's crash recovery — used by CI.

Acts out the acceptance scenario for the process pool:

1. Search a small Figure-7-style grid serially — the reference.
2. Search the same grid on a two-worker pool with a checkpoint
   directory.  This script kills one worker mid-cell: the pool's workers
   are forked from it, and a wrapped per-cell search SIGKILLs the first
   worker that takes the B=64 cell.  The pool resubmits the lost cell to
   a fresh pool and the sweep still finishes.
3. Resume the grid from the checkpoints: every cell must come from a
   checkpoint, without a single new search.
4. Verify the outcomes — and the checkpoint files' *bytes* — are
   identical to the uninterrupted serial run.

Exits non-zero on any mismatch.  Runs in a temporary directory; safe to
invoke anywhere: ``PYTHONPATH=src python examples/sweep_service_demo.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.obs import MetricsRegistry, recording
from repro.parallel.config import Method
from repro.search.service import (
    CheckpointStore,
    SweepCell,
    SweepOptions,
    cell_key,
    executors,
    run_sweep,
)
from repro.sim.calibration import DEFAULT_CALIBRATION

#: A small grid with non-trivial cells from two methods.
GRID = [
    SweepCell(Method.NO_PIPELINE, 8),
    SweepCell(Method.NO_PIPELINE, 64),
    SweepCell(Method.DEPTH_FIRST, 8),
    SweepCell(Method.DEPTH_FIRST, 16),
]
#: The cell whose first worker dies.
DOOMED = GRID[1]


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAILED"
    print(f"  [{status}] {message}")
    if not condition:
        sys.exit(1)


def kill_first_worker_of(cell: SweepCell, marker: Path) -> None:
    """Make the first pool worker that searches ``cell`` die mid-cell.

    Creating ``marker`` with ``O_EXCL`` succeeds once, so only one
    worker is killed; the resubmitted cell then searches normally.
    """
    search = executors._timed_search

    def search_or_die(context, searched):
        if searched == cell:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return search(context, searched)

    executors._timed_search = search_or_die


def main() -> int:
    keys = [
        cell_key(MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell)
        for cell in GRID
    ]

    print("1. serial reference run")
    reference = run_sweep(
        MODEL_6_6B, DGX1_CLUSTER_64, GRID, options=SweepOptions(processes=1)
    )

    with tempfile.TemporaryDirectory(prefix="sweep-demo-") as tmp:
        checkpoint_dir = Path(tmp) / "checkpoints"
        options = SweepOptions(processes=2, checkpoint_dir=checkpoint_dir)
        marker = Path(tmp) / "killed"

        print("2. pool run, 2 workers, one worker killed mid-cell")
        # Spawned workers would not inherit the wrapped search.
        fork = "fork" in multiprocessing.get_all_start_methods()
        if fork:
            kill_first_worker_of(DOOMED, marker)
        else:
            print("  (no fork on this platform: the kill cannot be injected)")
        interrupted = run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, GRID, options=options)
        if fork:
            check(marker.exists(), "a worker died holding the B=64 cell")
        check(
            not multiprocessing.active_children(), "no worker outlived the run"
        )
        check(interrupted == reference, "outcomes match the serial run")

        print("3. resume from the checkpoints")
        with recording(MetricsRegistry()) as registry:
            resumed = run_sweep(
                MODEL_6_6B,
                DGX1_CLUSTER_64,
                GRID,
                options=replace(options, resume=True),
            )
        counters = registry.snapshot()["counters"]
        check(
            counters.get("sweep.cells_from_checkpoints") == len(GRID)
            and "sweep.cells_computed" not in counters,
            "every cell came from a checkpoint, none was searched",
        )
        check(resumed == reference, "resumed outcomes match the serial run")

        print("4. byte-level checkpoint verification")
        store = CheckpointStore(checkpoint_dir)
        identical = all(
            store.path_for(key).read_bytes() == store.payload_bytes(key, outcome)
            for key, outcome in zip(keys, reference)
        )
        check(identical, "checkpoint bytes identical to serial outcomes")

    print("sweep service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
