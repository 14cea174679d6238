"""End-to-end smoke run of the distributed sweep service — used by CI.

Acts out the acceptance scenario for the file-queue backend:

1. Search a small Figure-7-style grid serially — the reference.
2. Start the same grid on the file-queue backend with two worker
   processes, the first of which is killed mid-cell (after completing
   one cell, it dies holding a claim — SIGKILL semantics).  The
   coordinator requeues the orphaned cell and the sweep still finishes.
3. Simulate a full coordinator interruption: wipe the queue, keep the
   checkpoints, and ``--resume`` the grid.  Every cell must be satisfied
   from checkpoints without a single new search.
4. Verify the outcomes — and the checkpoint files' *bytes* — are
   identical to the uninterrupted serial run.

Exits non-zero on any mismatch.  Runs in a temporary directory; safe to
invoke anywhere: ``PYTHONPATH=src python examples/sweep_service_demo.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import Method
from repro.search.service import (
    DEFAULT_SETTINGS,
    CheckpointStore,
    FileQueueExecutor,
    SweepCell,
    SweepOptions,
    cell_key,
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


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAILED"
    print(f"  [{status}] {message}")
    if not condition:
        sys.exit(1)


def main() -> int:
    context = (
        MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, DEFAULT_SETTINGS,
    )
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
        queue_dir = Path(tmp) / "queue"

        print("2. file-queue run, 2 workers, first worker killed mid-cell")
        executor = FileQueueExecutor(
            queue_dir,
            checkpoint_dir,
            processes=2,
            crash_first_worker_after=1,  # dies holding its second claim
        )
        tasks = list(zip(range(len(GRID)), keys, GRID))
        results = {
            index: outcome
            for index, outcome, _elapsed in executor.run(context, tasks)
        }
        interrupted = [results[i] for i in range(len(GRID))]
        check(len(interrupted) == len(GRID), "all cells completed despite the kill")
        check(interrupted == reference, "outcomes match the serial run")

        print("3. resume after a (simulated) coordinator interruption")
        for stale in queue_dir.rglob("*.json"):
            stale.unlink()  # the queue is disposable state; checkpoints are not
        resumed = run_sweep(
            MODEL_6_6B,
            DGX1_CLUSTER_64,
            GRID,
            options=SweepOptions(
                backend="file-queue",
                checkpoint_dir=checkpoint_dir,
                queue_dir=queue_dir,
                processes=2,
                resume=True,
            ),
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
