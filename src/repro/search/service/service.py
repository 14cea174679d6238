"""``run_sweep``: the resumable, backend-pluggable sweep entry point.

One call searches a set of (method, batch size) cells over any of the
executor backends and, when a checkpoint directory is given, persists
every completed cell as it lands.  With ``resume=True`` the sweep first
satisfies cells from valid checkpoints and only schedules the remainder
— an interrupted full-paper grid loses at most the cells that were in
flight, and a finished grid replays instantly.

Checkpoint keys are content hashes of the complete search input
(:func:`repro.search.service.serialize.cell_key`), so one directory can
safely accumulate cells from different models, clusters, calibrations
and panels, and a checkpoint can never be resumed against the wrong
inputs.  Duplicate cells in the input are searched once and fanned back
to every position.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path

from repro.hardware.cluster import ClusterSpec
from repro.models.spec import TransformerSpec
from repro.obs import (
    MetricsRegistry,
    get_recorder,
    merge_snapshot,
    recording,
    write_snapshot_line,
)
from repro.search.cell import SearchSettings, SweepCell
from repro.search.grid import SearchOutcome
from repro.search.objective import DEFAULT_OBJECTIVE, Objective
from repro.search.service.checkpoint import CheckpointStore
from repro.search.service.executors import (
    Executor,
    FileQueueExecutor,
    MultiprocessingExecutor,
    SerialExecutor,
    SweepError,
)
from repro.search.service.memo import MemoStore
from repro.search.service.progress import ProgressReporter
from repro.search.service.serialize import cell_key, group_key
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration

__all__ = ["BACKENDS", "SweepOptions", "run_sweep"]

#: Selectable backend names, in documentation order.
BACKENDS = ("serial", "multiprocessing", "file-queue")


@dataclass(frozen=True)
class SweepOptions:
    """How a sweep should execute (everything except *what* to search).

    Attributes:
        backend: One of :data:`BACKENDS`.
        processes: Pool size for the ``multiprocessing`` backend (None =
            CPU count).
        start_method: ``fork``/``spawn``/``forkserver`` override for the
            ``multiprocessing`` backend; None picks fork where available.
        checkpoint_dir: Directory of per-cell checkpoints.  Optional for
            in-process backends, required for ``file-queue`` (workers
            deliver results through it).
        queue_dir: File-queue root; defaults to ``checkpoint_dir/queue``.
        workers: File-queue local worker count.
        max_retries: Requeues allowed per cell after worker crashes.
        stale_lease: File-queue claim lease (seconds) for recovering
            cells held by unreachable external workers; None disables.
        resume: Satisfy cells from existing checkpoints instead of
            recomputing them.
        progress: Print progress/ETA lines to stderr.
        bound_pruning: Branch-and-bound on the analytical step-time lower
            bound inside every cell (see
            :class:`repro.search.cell.SearchSettings`).  Winners are
            byte-identical either way; ``--no-bound-pruning`` on the
            experiments CLI maps here.
        include_hybrid: Add the Section 4.2 hybrid ``sequence_size`` axis
            to every breadth-first cell's space.
        objective: What every cell of the sweep optimizes (see
            :mod:`repro.search.objective`; the CLI's ``--objective`` /
            ``--memory-headroom`` map here).  Part of the checkpoint
            content hash — but only when non-default, so existing
            throughput-sweep checkpoint directories keep resuming
            byte-identically while differently-constrained sweeps can
            share a directory safely.
        calibration: Cost-model constants used when the caller does not
            pass an explicit calibration to :func:`run_sweep`.  This is
            how the experiments CLI's ``--calibration`` (e.g. the
            committed least-squares fit, ``fitted_calibration.json``)
            reaches every search-backed experiment: the calibration
            rides with the options into each panel's sweep, and — being
            part of the checkpoint content hash — keeps fitted and
            hand-tuned checkpoints strictly separate in a shared
            directory.
        verify_winners: Statically verify every cell's reported
            configurations with :mod:`repro.verify` before accepting
            the outcome (``--verify-winners`` on the experiments CLI;
            see :class:`repro.search.cell.SearchSettings`).  A pure
            post-check — not part of checkpoint content hashes.
        metrics_out: Directory for observability snapshots
            (``--metrics-out`` on the experiments CLI): the coordinator
            appends to ``coordinator.jsonl`` and file-queue workers each
            append to ``<worker-id>.jsonl``.  Pure observation — never
            part of checkpoint content hashes (not a
            :class:`~repro.search.cell.SearchSettings` field).
    """

    backend: str = "multiprocessing"
    processes: int | None = None
    start_method: str | None = None
    checkpoint_dir: str | os.PathLike | None = None
    queue_dir: str | os.PathLike | None = None
    workers: int = 2
    max_retries: int = 2
    stale_lease: float | None = None
    resume: bool = False
    progress: bool = False
    bound_pruning: bool = True
    include_hybrid: bool = False
    objective: Objective = DEFAULT_OBJECTIVE
    calibration: Calibration = DEFAULT_CALIBRATION
    verify_winners: bool = False
    metrics_out: str | os.PathLike | None = None

    @property
    def search_settings(self) -> SearchSettings:
        """The per-cell pipeline knobs as a :class:`SearchSettings`."""
        return SearchSettings(
            bound_pruning=self.bound_pruning,
            include_hybrid=self.include_hybrid,
            objective=self.objective,
            verify_winners=self.verify_winners,
        )


def _make_executor(options: SweepOptions) -> Executor:
    if options.backend == "serial":
        return SerialExecutor()
    if options.backend == "multiprocessing":
        return MultiprocessingExecutor(
            processes=options.processes,
            start_method=options.start_method,
        )
    if options.backend == "file-queue":
        if options.checkpoint_dir is None:
            raise ValueError(
                "the file-queue backend requires checkpoint_dir: workers "
                "deliver their results through the checkpoint store"
            )
        queue_dir = options.queue_dir
        if queue_dir is None:
            queue_dir = Path(options.checkpoint_dir) / "queue"
        return FileQueueExecutor(
            queue_dir,
            options.checkpoint_dir,
            workers=options.workers,
            max_retries=options.max_retries,
            stale_lease=options.stale_lease,
            metrics_out=options.metrics_out,
        )
    raise ValueError(
        f"unknown backend {options.backend!r}; choose from "
        f"{', '.join(BACKENDS)}"
    )


def _order_longest_first(
    store: CheckpointStore | None, tasks: list, objective: Objective
) -> tuple[list, dict[str, float]]:
    """Family-clustered longest-first order; also the cost estimates.

    Cells of one *method* share pricing families across batch sizes (a
    family is ``(n_pp, n_loop, s_mb, n_tp)`` — batch size only changes
    how many micro-batches flow through it), so scheduling a method's
    cells consecutively means every cell after the group's first runs
    against warm family caches on the same worker under the file
    queue's claim order.  Groups are ordered by their *longest* member
    (descending), cells within a group longest-first, which preserves
    the critical-path property: the giant that would otherwise finish
    alone at the end still starts first.

    Recorded wall-clock from the checkpoint store's timing sidecars (a
    previous run over the same directory) ranks known cells exactly;
    cells without a record are put on the same seconds scale by
    estimating from the steepest recorded seconds-per-weighted-sample
    rate (batch size is the dominant cost driver — more candidates, more
    micro-batches per simulation — scaled by the objective's
    ``simulate_cost_factor``, since e.g. a Pareto cell simulates ~2x the
    candidates of a throughput argmax on the same batch), so a big *new*
    cell still schedules ahead of small recorded ones instead of
    defaulting to the back of the queue.  With no records at all the
    estimate degenerates to weighted-batch-size order.  The objective
    factor is constant within one sweep, but it keeps the recorded
    *rate* on an objective-independent scale — checkpoint keys include
    the objective, so sidecars always come from same-objective runs, and
    dividing the factor back out means a directory's rate reads the same
    whichever objective recorded it.  Front-loading long cells shortens
    a parallel sweep's critical path — no worker is left finishing a
    giant cell alone at the end — and makes the rate-based ETA an
    overestimate that only improves, instead of an early underestimate.
    Input order is restored when results are assembled, so scheduling
    order never changes what the sweep returns.

    Returns ``(ordered_tasks, estimated_seconds_by_key)``; the estimates
    feed the progress reporter's cost-weighted ETA, so one giant cell
    finishing first doesn't read as "every cell takes this long".
    """
    factor = objective.simulate_cost_factor
    recorded: dict[str, float] = {}
    if store is not None:
        for _index, key, _cell in tasks:
            seconds = store.load_timing(key)
            if seconds is not None:
                recorded[key] = seconds
    rate = max(
        (
            recorded[key] / max(1.0, cell.batch_size * factor)
            for _index, key, cell in tasks
            if key in recorded
        ),
        default=1.0,
    )

    estimates = {
        key: recorded.get(key, rate * cell.batch_size * factor)
        for _index, key, cell in tasks
    }
    peak: dict = {}
    for _index, key, cell in tasks:
        peak[cell.method] = max(peak.get(cell.method, 0.0), estimates[key])
    ordered = sorted(
        tasks,
        key=lambda task: (
            -peak[task[2].method],
            task[2].method.name,
            -estimates[task[1]],
            task[1],
        ),
    )
    return ordered, estimates


def run_sweep(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    cells: Iterable[SweepCell],
    *,
    calibration: Calibration | None = None,
    options: SweepOptions | None = None,
    executor: Executor | None = None,
    **overrides,
) -> list[SearchOutcome]:
    """Search every cell; return outcomes in the input order.

    Args:
        spec: Model to search for.
        cluster: Hardware description.
        cells: The (method, batch size) cells to search.
        calibration: Cost-model constants, shared by all cells.  ``None``
            (the default) uses ``options.calibration``, which is itself
            the hand-tuned default unless the caller (e.g. the CLI's
            ``--calibration``) overrode it.
        options: Execution settings (see :class:`SweepOptions`).
        executor: Pre-built backend instance, overriding
            ``options.backend`` — the hook for custom executors.
        **overrides: Field overrides applied on top of ``options``
            (``run_sweep(..., backend="serial", resume=True)``).

    Raises:
        SweepError: A cell could not be completed (e.g. file-queue
            workers exhausted the retry cap).
        ValueError: Unknown backend or invalid option combination.
    """
    if options is None:
        options = SweepOptions()
    if overrides:
        options = replace(options, **overrides)
    if calibration is None:
        calibration = options.calibration
    settings = options.search_settings

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

    tasks = [
        (index, key, cell)
        for key, (index, cell) in first_of.items()
        if key not in outcomes
    ]
    tasks, estimates = _order_longest_first(store, tasks, options.objective)
    key_of_index = {index: key for index, key, _cell in tasks}

    reporter = (
        ProgressReporter(len(first_of), label=f"sweep:{options.backend}")
        if options.progress
        else None
    )
    if reporter is not None:
        reporter.expect(estimates[key] for _index, key, _cell in tasks)
        if outcomes:
            reporter.skip(len(outcomes))

    # Coordinator-side metrics: record into whatever recorder is active
    # (the CLI installs one for --metrics-out); when none is and the
    # options ask for metrics, install our own for the sweep's duration.
    own_registry: MetricsRegistry | None = None
    if options.metrics_out is not None and not get_recorder().enabled:
        own_registry = MetricsRegistry(actor="coordinator")

    if tasks:
        backend = executor if executor is not None else _make_executor(options)
        context = (spec, cluster, calibration, settings)
        with ExitStack() as stack:
            if own_registry is not None:
                stack.enter_context(recording(own_registry))
            rec = get_recorder()
            rec.count("sweep.cells_total", len(first_of))
            rec.count("sweep.cells_from_checkpoints", len(outcomes))
            with rec.span("sweep.run", backend=options.backend):
                for index, outcome, report in backend.run(context, tasks):
                    key = key_of_index[index]
                    if store is not None and not backend.writes_checkpoints:
                        store.store(key, outcome, group=group)
                        if report.seconds is not None:
                            store.store_timing(key, report.seconds)
                    outcomes[key] = outcome
                    rec.count("sweep.cells_computed")
                    if report.metrics is not None:
                        merge_snapshot(rec, report.metrics)
                    if reporter is not None:
                        reporter.update(cost=estimates.get(key))
        if own_registry is not None:
            write_snapshot_line(
                Path(options.metrics_out) / "coordinator.jsonl",
                own_registry.snapshot(),
            )

    missing = [key for key in first_of if key not in outcomes]
    if missing:
        raise SweepError(
            f"sweep finished with {len(missing)} unresolved cell(s): "
            f"{', '.join(sorted(missing))}"
        )
    return [outcomes[key] for key in keys]
