"""The sweep service's executor: a process pool that outlives a dead worker.

:func:`run_cells` takes the search context and a list of
``(index, key, cell)`` tasks and yields ``(index, outcome, report)``
triples as cells complete, in any order (the service reassembles input
order).  With one process it searches the cells in order in the calling
process, the byte-stability reference.  Otherwise it runs a
``concurrent.futures.ProcessPoolExecutor`` that forks where the platform
has fork (workers inherit the warm schedule cache) and spawns elsewhere
(the pool initializer rebuilds the search context in each child).

Crash recovery: the pool holds at most one cell per worker in flight.
When a worker dies, the pool raises ``BrokenProcessPool`` on every
in-flight cell and cannot say whose worker died.  So a loss is charged
only to a cell that was the one cell in flight; cells lost together
each rerun alone, in a one-worker pool, where a further loss is their
own.  Lost cells rerun in a fresh pool, ahead of the cells not yet
started.  A cell lost alone more than :data:`MAX_RETRIES` times is never
dropped: once every other cell is done, the sweep raises
:class:`SweepError` naming it.  A worker exits once its coordinator is
gone, so a coordinator killed outright leaves no worker behind.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import Counter, deque
from collections.abc import Generator, Sequence
from typing import NamedTuple

from repro.hardware.cluster import ClusterSpec
from repro.models.spec import TransformerSpec
from repro.obs import MetricsRegistry, get_recorder, recording, uninstall
from repro.obs import clock as obs_clock
from repro.search.cell import SearchSettings, SweepCell
from repro.search.grid import SearchOutcome, best_configuration
from repro.sim.calibration import Calibration

__all__ = [
    "MAX_RETRIES",
    "CellReport",
    "SweepError",
    "run_cells",
]

#: (input index, content-hash key, cell) — the unit executors schedule.
Task = tuple[int, str, SweepCell]
#: What a cell search needs besides the cell itself.
Context = tuple[TransformerSpec, ClusterSpec, Calibration, SearchSettings]
#: Times a cell is resubmitted after losing its worker alone; one more
#: such loss fails the sweep.
MAX_RETRIES = 2
#: Seconds between a pool worker's checks that its coordinator lives.
_COORDINATOR_POLL = 1.0


class SweepError(RuntimeError):
    """The sweep could not finish every cell."""


class CellReport(NamedTuple):
    """Per-cell measurement shipped from the searching process.

    Attributes:
        seconds: Search wall-clock.
        started_at: Epoch seconds at which the search started.
        worker: The process that searched the cell: ``pool-<pid>`` for
            a pool worker (the actor its metrics carry), ``coordinator``
            for a search in the calling process.  With ``started_at`` it
            places the cell on a lane of the sweep trace
            (:mod:`repro.viz.sweep_trace`).
        metrics: Obs snapshot of this cell's search, recorded by a pool
            worker into a fresh registry (the worker's own registry dies
            with its process); the coordinator merges it into its
            recorder.  None when the search recorded in-process or
            nobody was recording.
    """

    seconds: float
    started_at: float
    worker: str = "coordinator"
    metrics: dict | None = None


#: What an executor yields for each completed cell.
Result = tuple[int, SearchOutcome, CellReport]


def _timed_search(
    context: Context, cell: SweepCell
) -> tuple[SearchOutcome, CellReport]:
    """Search one cell, returning (outcome, measurement report)."""
    spec, cluster, calibration, settings = context
    started_at = obs_clock.wall()
    start = obs_clock.perf()
    outcome = best_configuration(
        spec, cluster, cell.method, cell.batch_size, calibration, settings
    )
    return outcome, CellReport(
        seconds=obs_clock.perf() - start, started_at=started_at
    )


# ------------------------------------------------------------ process pool

#: Worker-process search context, set once by the pool initializer so the
#: per-cell task payload is just the (index, cell) pair.  Works for both
#: fork (inherited) and spawn (initargs are pickled to the child).
_WORKER_CONTEXT: dict = {}


def _init_worker(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    calibration: Calibration,
    settings: SearchSettings,
    record: bool,
    coordinator: int,
) -> None:
    threading.Thread(
        target=_exit_without, args=(coordinator,), daemon=True
    ).start()
    # Fork children inherit the coordinator's installed recorder, but
    # their registry copy dies with them — nothing they count is ever
    # snapshotted.  Reset to the null recorder; when the coordinator is
    # recording, each cell records into its own registry instead and
    # ships the snapshot back (_search_indexed).
    uninstall()
    _WORKER_CONTEXT["args"] = (spec, cluster, calibration, settings)
    _WORKER_CONTEXT["record"] = record


def _exit_without(coordinator: int) -> None:
    """End this worker once the process ``coordinator`` is gone.

    An orphan is re-parented, so its parent pid changes.  Without this
    an orphaned worker waits forever: it holds both ends of its pool
    pipes itself, so it never reads end-of-file.
    """
    while os.getppid() == coordinator:
        time.sleep(_COORDINATOR_POLL)
    os._exit(1)


def _search_indexed(task: tuple[int, SweepCell]) -> Result:
    index, cell = task
    context = _WORKER_CONTEXT["args"]
    worker = f"pool-{os.getpid()}"
    if not _WORKER_CONTEXT["record"]:
        outcome, report = _timed_search(context, cell)
        return index, outcome, report._replace(worker=worker)
    registry = MetricsRegistry(actor=worker)
    with recording(registry):
        outcome, report = _timed_search(context, cell)
    return index, outcome, report._replace(
        worker=worker, metrics=registry.snapshot()
    )


def run_cells(
    context: Context, tasks: Sequence[Task], *, processes: int | None
) -> Generator[Result, None, None]:
    """Search every task; yield ``(index, outcome, report)`` as each lands.

    ``processes`` workers (None = CPU count; either way capped at the
    number of cells), fork where the platform has it and spawn
    otherwise; one process searches the cells in order in the calling
    process.  When the coordinator's recorder is enabled as a pool
    starts, every cell's metrics come back as a snapshot on its
    :class:`CellReport`.

    Raises:
        SweepError: Once every other cell is done, if a cell lost its
            worker alone more than :data:`MAX_RETRIES` times.
    """
    if processes is None:
        processes = os.cpu_count() or 1
    n_proc = max(1, min(processes, len(tasks)))
    if n_proc <= 1:
        for index, _key, cell in tasks:
            outcome, report = _timed_search(context, cell)
            yield index, outcome, report
        return
    # Imported here: a serial sweep never loads the pool machinery.
    from concurrent.futures import (
        FIRST_COMPLETED,
        Future,
        ProcessPoolExecutor,
        wait,
    )
    from concurrent.futures.process import BrokenProcessPool

    available = multiprocessing.get_all_start_methods()
    mp_context = multiprocessing.get_context(
        "fork" if "fork" in available else "spawn"
    )
    queued = deque(tasks)
    # Cells that lost a worker rerun one at a time, ahead of the rest.
    alone: deque[Task] = deque()
    losses: Counter[int] = Counter()
    failed: list[Task] = []
    while queued or alone:
        source, width = (alone, 1) if alone else (queued, n_proc)
        pool = ProcessPoolExecutor(
            width,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(*context, get_recorder().enabled, os.getpid()),
        )
        in_flight: dict[Future[Result], Task] = {}
        finished: list[Future[Result]] = []
        lost: list[Task] = []
        broken = False
        try:
            while True:
                while source and not broken and len(in_flight) < width:
                    index, _key, cell = source[0]
                    try:
                        future = pool.submit(_search_indexed, (index, cell))
                    except BrokenProcessPool:
                        broken = True  # an idle worker died
                    else:
                        in_flight[future] = source.popleft()
                # Yield after the refill, so the workers search on
                # while the consumer stores what they returned.
                for future in finished:
                    yield future.result()
                if not in_flight:
                    break
                done, _pending = wait(in_flight, return_when=FIRST_COMPLETED)
                finished = []
                # In submission order: lost cells go back in the
                # order they were scheduled.
                for future in [f for f in in_flight if f in done]:
                    task = in_flight.pop(future)
                    if isinstance(future.exception(), BrokenProcessPool):
                        broken = True
                        lost.append(task)
                    else:
                        finished.append(future)
        finally:
            # Waits for the cells still in flight (at most one per
            # worker) when the consumer stops early; no worker
            # outlives the run.
            pool.shutdown(cancel_futures=True)
        if len(lost) == 1:
            # The one cell in flight when its pool broke: the loss is
            # its own.
            (task,) = lost
            losses[task[0]] += 1
            if losses[task[0]] > MAX_RETRIES:
                failed.append(task)
                continue
        alone.extendleft(reversed(lost))
    if failed:
        cells = ", ".join(
            f"{key} ({cell.method.value} B={cell.batch_size})"
            for _index, key, cell in failed
        )
        raise SweepError(
            f"{len(failed)} cell(s) lost their worker alone more than "
            f"MAX_RETRIES={MAX_RETRIES} times: {cells}"
        )
