"""``run_sweep``: the resumable sweep entry point.

One call searches a set of (method, batch size) cells on the process
pool (:func:`~repro.search.service.executors.run_cells`, or in the
calling process with ``processes=1``) and, when a checkpoint directory
is given, persists every completed cell as it lands.  With
``resume=True`` the sweep first satisfies cells from valid checkpoints
and only schedules the remainder — an interrupted full-paper grid loses
at most the cells that were in flight, and a finished grid replays
instantly.

Checkpoint keys are content hashes of the complete search input
(:func:`repro.search.service.serialize.cell_key`), so one directory can
safely accumulate cells from different models, clusters, calibrations
and panels, and a checkpoint can never be resumed against the wrong
inputs.  Duplicate cells in the input are searched once and fanned back
to every position.

The cells left to search run in an order computed from the cells alone
(:func:`_schedule`); each finished cell's timing sidecar is written for
``sweep-trace`` (:mod:`repro.viz.sweep_trace`), never read back here.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from contextlib import closing
from dataclasses import dataclass

from repro.hardware.cluster import ClusterSpec
from repro.models.spec import TransformerSpec
from repro.obs import get_recorder, merge_snapshot
from repro.parallel.config import Method
from repro.search.cell import DEFAULT_SETTINGS, SearchSettings, SweepCell
from repro.search.grid import SearchOutcome
from repro.search.service.executors import Task, run_cells
from repro.search.service.memo import MemoStore
from repro.search.service.progress import ProgressReporter
from repro.search.service.serialize import cell_key, group_key
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration

__all__ = ["SweepOptions", "run_sweep"]


@dataclass(frozen=True)
class SweepOptions:
    """How a sweep runs, and the settings all of its cells search under.

    The one place a sweep is configured: :func:`run_sweep` takes nothing
    else, and the experiments CLI builds one from its flags.  Invalid
    combinations are refused here, when the options are built, whether
    or not the sweep has anything left to compute.

    Attributes:
        processes: Pool worker processes (None = CPU count; either way
            capped at the number of cells left).  1 means no pool: the
            cells are searched serially in this process, the reference
            the pool must match.
        checkpoint_dir: Directory of per-cell checkpoints.  Optional,
            but required for ``resume``.
        resume: Satisfy cells from existing checkpoints instead of
            recomputing them.
        progress: Print progress/ETA lines to stderr.
        settings: The search settings shared by every cell: bound
            pruning, the hybrid axis and the objective (see
            :class:`repro.search.cell.SearchSettings`).  They are part
            of the search input, so
            :func:`~repro.search.service.serialize.cell_key` hashes them
            into every checkpoint key.
        calibration: Cost-model constants shared by every cell.  This is
            how the experiments CLI's ``--calibration`` (e.g. the
            committed least-squares fit, ``fitted_calibration.json``)
            reaches every search-backed experiment; being part of the
            checkpoint content hash, it keeps fitted and hand-tuned
            checkpoints strictly separate in a shared directory.

    Raises:
        ValueError: ``processes`` below 1, or ``resume`` without a
            ``checkpoint_dir``.
    """

    processes: int | None = None
    checkpoint_dir: str | os.PathLike | None = None
    resume: bool = False
    progress: bool = False
    settings: SearchSettings = DEFAULT_SETTINGS
    calibration: Calibration = DEFAULT_CALIBRATION

    def __post_init__(self) -> None:
        if self.processes is not None and self.processes < 1:
            raise ValueError(
                f"processes (--jobs) must be >= 1, got {self.processes}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError(
                "resume (--resume) requires checkpoint_dir (--checkpoint-dir)"
            )


def _schedule(tasks: list[Task]) -> list[Task]:
    """The order to search ``tasks`` in: a method's cells together, big first.

    Cells of one method share pricing families across batch sizes (a
    family is ``(n_pp, n_loop, s_mb, n_tp)``; the batch size only sets
    how many micro-batches flow through it), so a method's cells run
    consecutively: every cell after the first finds the family caches
    its worker already warmed.  Methods run by their largest batch size,
    descending, then by name; a method's cells by batch size,
    descending, then by key.  Batch size is what makes a cell long (more
    candidates, more micro-batches per simulation), so the longest cell
    still starts first and no worker is left finishing it alone at the
    end.  Input order is restored when results are assembled, so the
    order never changes what the sweep returns.
    """
    largest: dict[Method, int] = {}
    for _index, _key, cell in tasks:
        largest[cell.method] = max(largest.get(cell.method, 0), cell.batch_size)
    return sorted(
        tasks,
        key=lambda task: (
            -largest[task[2].method],
            task[2].method.name,
            -task[2].batch_size,
            task[1],
        ),
    )


def run_sweep(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    cells: Iterable[SweepCell],
    *,
    options: SweepOptions | None = None,
) -> list[SearchOutcome]:
    """Search every cell; return outcomes in the input order.

    Args:
        spec: Model to search for.
        cluster: Hardware description.
        cells: The (method, batch size) cells to search.
        options: Everything else: the pool size, checkpointing, and the
            calibration and search settings shared by every cell (see
            :class:`SweepOptions`).  None means ``SweepOptions()``.

    Raises:
        SweepError: A cell lost its pool worker more than
            :data:`~repro.search.service.executors.MAX_RETRIES` times
            while it was the one cell in flight.
    """
    if options is None:
        options = SweepOptions()
    calibration, settings = options.calibration, options.settings

    cells = list(cells)
    keys = [
        cell_key(spec, cluster, calibration, cell, settings) for cell in cells
    ]

    # Dedup: identical cells share a key and are searched exactly once.
    first_of: dict[str, tuple[int, SweepCell]] = {}
    for index, (key, cell) in enumerate(zip(keys, cells)):
        first_of.setdefault(key, (index, cell))

    store = (
        MemoStore(options.checkpoint_dir)
        if options.checkpoint_dir is not None
        else None
    )
    group = (
        group_key(spec, cluster, calibration, settings)
        if store is not None
        else None
    )
    outcomes: dict[str, SearchOutcome] = {}
    if options.resume and store is not None and group is not None:
        outcomes = store.load_many(first_of)
        # Back-filled manifest entries (pre-MemoStore directories) have
        # no group; we know the context here, so upgrade them.
        for key in outcomes:
            store.annotate_group(key, group)

    tasks = _schedule(
        [
            (index, key, cell)
            for key, (index, cell) in first_of.items()
            if key not in outcomes
        ]
    )
    key_of_index = {index: key for index, key, _cell in tasks}

    reporter = (
        ProgressReporter(len(first_of), label="sweep")
        if options.progress
        else None
    )
    if reporter is not None and outcomes:
        reporter.skip(len(outcomes))

    # Coordinator-side metrics go to the active recorder (the CLI
    # installs one for --metrics-out; a library caller wraps the call in
    # repro.obs.recording()), the pool workers' snapshots included.
    rec = get_recorder()
    rec.count("sweep.cells_total", len(first_of))
    rec.count("sweep.cells_from_checkpoints", len(outcomes))
    if tasks:
        context = (spec, cluster, calibration, settings)
        with (
            closing(
                run_cells(context, tasks, processes=options.processes)
            ) as results,
            rec.span("sweep.run"),
        ):
            for index, outcome, report in results:
                key = key_of_index[index]
                if store is not None:
                    store.store(key, outcome, group=group)
                    store.store_timing(
                        key,
                        report.seconds,
                        worker=report.worker,
                        started_at=report.started_at,
                    )
                outcomes[key] = outcome
                rec.count("sweep.cells_computed")
                if report.metrics is not None:
                    merge_snapshot(rec, report.metrics)
                if reporter is not None:
                    reporter.update()

    return [outcomes[key] for key in keys]
