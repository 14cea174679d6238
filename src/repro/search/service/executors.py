"""Pluggable executor backends for the sweep service.

Every backend implements one contract: given the search context and a
list of ``(index, key, cell)`` tasks, yield ``(index, outcome)`` pairs as
cells complete (in any order — the service reassembles input order).
Three are provided:

- :class:`SerialExecutor`: an in-process loop; the byte-stability
  reference, and what the ``multiprocessing`` backend runs with one
  process.
- ``multiprocessing``: a ``multiprocessing.Pool`` using ``fork`` where
  available (workers inherit the warm schedule cache) and ``spawn``
  elsewhere — the pool initializer rebuilds the context in each child,
  so spawn-only platforms get a real pool instead of the old silent
  serial fallback.
- ``file-queue``: independent worker *processes* — on this machine or
  any machine sharing the queue's filesystem — claim cells via atomic
  renames, checkpoint results themselves, and survive crashes: the
  coordinator reaps dead workers, requeues their in-flight cells with a
  retry cap, expires claims that outlive the lease, and keeps its local
  fleet, sized like the pool, at strength while work remains.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import NamedTuple

import repro
from repro.hardware.cluster import ClusterSpec
from repro.models.spec import TransformerSpec
from repro.obs import MetricsRegistry, get_recorder, recording, uninstall
from repro.obs import clock as obs_clock
from repro.search.cell import SearchSettings, SweepCell
from repro.search.grid import SearchOutcome, best_configuration
from repro.search.service.checkpoint import CheckpointStore
from repro.search.service.queue import CLAIM_LEASE, MAX_RETRIES, FileWorkQueue
from repro.sim.calibration import Calibration

__all__ = [
    "CellReport",
    "Executor",
    "FileQueueExecutor",
    "MultiprocessingExecutor",
    "SerialExecutor",
    "SweepError",
    "worker_command",
    "worker_env",
]

#: (input index, content-hash key, cell) — the unit executors schedule.
Task = tuple[int, str, SweepCell]
#: Seconds the file-queue coordinator waits between polls of the queue.
_POLL_INTERVAL = 0.05
#: What a cell search needs besides the cell itself.
Context = tuple[TransformerSpec, ClusterSpec, Calibration, SearchSettings]


class SweepError(RuntimeError):
    """The sweep could not finish every cell."""


class CellReport(NamedTuple):
    """Per-cell measurement shipped from the searching process.

    Attributes:
        seconds: Search wall-clock (None when the backend could not
            measure the search itself, e.g. a cell satisfied by someone
            else's checkpoint).
        metrics: Obs snapshot of this cell's search, recorded by a pool
            worker into a fresh registry (the worker's own registry dies
            with its process); the coordinator merges it into its
            recorder.  None when the search recorded in-process or
            nobody was recording.
    """

    seconds: float | None
    metrics: dict | None = None


class Executor:
    """Backend interface: schedule cells, stream back outcomes.

    ``run`` yields ``(index, outcome, report)`` triples; the report's
    wall-clock feeds the checkpoint store's timing sidecars (and
    through them the family-clustered longest-first scheduling of later
    runs), and its metrics snapshot (if any) feeds the coordinator's
    recorder.
    """

    #: True when the backend's workers persist checkpoints themselves
    #: (the service then skips its own store-on-completion write).
    writes_checkpoints: bool = False

    def run(
        self, context: Context, tasks: Sequence[Task]
    ) -> Iterator[tuple[int, SearchOutcome, CellReport]]:
        raise NotImplementedError


def _timed_search(
    context: Context, cell: SweepCell
) -> tuple[SearchOutcome, CellReport]:
    """Search one cell, returning (outcome, measurement report)."""
    spec, cluster, calibration, settings = context
    start = obs_clock.perf()
    outcome = best_configuration(
        spec, cluster, cell.method, cell.batch_size, calibration, settings
    )
    return outcome, CellReport(seconds=obs_clock.perf() - start)


# ------------------------------------------------------------------- serial


class SerialExecutor(Executor):
    """In-process, input-order execution; every other backend's oracle."""

    def run(self, context, tasks):
        for index, _key, cell in tasks:
            outcome, report = _timed_search(context, cell)
            yield index, outcome, report


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
) -> None:
    # Fork children inherit the coordinator's installed recorder, but
    # their registry copy dies with them — nothing they count is ever
    # snapshotted.  Reset to the null recorder; when the coordinator is
    # recording, each cell records into its own registry instead and
    # ships the snapshot back (_search_indexed).
    uninstall()
    _WORKER_CONTEXT["args"] = (spec, cluster, calibration, settings)
    _WORKER_CONTEXT["record"] = record


def _search_indexed(
    task: tuple[int, SweepCell],
) -> tuple[int, SearchOutcome, CellReport]:
    index, cell = task
    context = _WORKER_CONTEXT["args"]
    if not _WORKER_CONTEXT["record"]:
        outcome, report = _timed_search(context, cell)
        return index, outcome, report
    registry = MetricsRegistry(actor=f"pool-{os.getpid()}")
    with recording(registry):
        outcome, report = _timed_search(context, cell)
    return index, outcome, report._replace(metrics=registry.snapshot())


def _resolve_processes(processes: int | None, n_tasks: int) -> int:
    if processes is None:
        processes = os.cpu_count() or 1
    return max(1, min(processes, n_tasks))


class MultiprocessingExecutor(Executor):
    """Coarse-grained ``multiprocessing.Pool`` fan-out: fork where the
    platform has it, spawn otherwise.

    When the coordinator's recorder is enabled as the pool starts, every
    cell's metrics come back as a snapshot on its :class:`CellReport`.
    """

    def __init__(self, *, processes: int | None = None) -> None:
        self.processes = processes

    def run(self, context, tasks):
        n_proc = _resolve_processes(self.processes, len(tasks))
        if n_proc <= 1:
            yield from SerialExecutor().run(context, tasks)
            return
        available = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in available else "spawn"
        )
        payload = [(index, cell) for index, _key, cell in tasks]
        with ctx.Pool(
            processes=n_proc,
            initializer=_init_worker,
            initargs=(*context, get_recorder().enabled),
        ) as pool:
            yield from pool.imap_unordered(_search_indexed, payload, chunksize=1)


# --------------------------------------------------------------- file queue


def worker_env() -> dict[str, str]:
    """Environment for a worker subprocess: current env + importable repro.

    ``repro`` may be on ``PYTHONPATH`` rather than installed (the repo's
    own layout), so the package's parent directory is prepended.
    """
    env = dict(os.environ)
    pkg_parent = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_parent if not existing else pkg_parent + os.pathsep + existing
    )
    return env


def worker_command(
    queue_dir: str | os.PathLike,
    checkpoint_dir: str | os.PathLike,
    *,
    worker_id: str | None = None,
    crash_after_claims: int | None = None,
    metrics_out: str | os.PathLike | None = None,
) -> list[str]:
    """The subprocess argv for one file-queue worker."""
    cmd = [
        sys.executable,
        "-m",
        "repro.search.service.worker",
        "--queue-dir",
        str(queue_dir),
        "--checkpoint-dir",
        str(checkpoint_dir),
    ]
    if worker_id is not None:
        cmd += ["--worker-id", worker_id]
    if crash_after_claims is not None:
        cmd += ["--crash-after-claims", str(crash_after_claims)]
    if metrics_out is not None:
        cmd += ["--metrics-out", str(metrics_out)]
    return cmd


class FileQueueExecutor(Executor):
    """Work-queue backend: independent worker processes over a shared FS.

    The coordinator enqueues every cell, launches ``processes`` local
    worker processes (None = CPU count; either way capped at the number
    of cells, as the pool is), and then only watches the filesystem:
    ``done/`` markers stream results back, dead workers get their claims
    requeued (attempt count capped at
    :data:`~repro.search.service.queue.MAX_RETRIES`), and replacements
    are launched while claimable work remains.  Additional workers started
    by hand — e.g. on other machines against the same directory — join
    the same sweep transparently; the coordinator simply sees cells
    complete faster.

    Every poll also requeues claims older than
    :data:`~repro.search.service.queue.CLAIM_LEASE`, busy or idle: the
    recovery path for workers whose pid the coordinator cannot probe.
    Live workers renew their claims well within the lease, so expiry
    only reaches a worker that stopped; a genuinely stalled one costs a
    duplicate computation (completion is idempotent) and one retry.
    """

    writes_checkpoints = True

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        checkpoint_dir: str | os.PathLike,
        *,
        processes: int | None = None,
        crash_first_worker_after: int | None = None,
        metrics_out: str | os.PathLike | None = None,
    ) -> None:
        self.queue_dir = Path(queue_dir)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.processes = processes
        #: Failure injection (tests / CI smoke run): the first worker
        #: launched dies mid-cell after this many claims.
        self.crash_first_worker_after = crash_first_worker_after
        #: Directory each worker appends its metrics snapshot to
        #: (``<dir>/<worker-id>.jsonl``); None leaves observability off.
        self.metrics_out = metrics_out

    def _spawn(self, worker_id: str, *, inject_crash: bool) -> subprocess.Popen:
        cmd = worker_command(
            self.queue_dir,
            self.checkpoint_dir,
            worker_id=worker_id,
            crash_after_claims=(
                self.crash_first_worker_after if inject_crash else None
            ),
            metrics_out=self.metrics_out,
        )
        return subprocess.Popen(
            cmd, env=worker_env(), stdout=subprocess.DEVNULL
        )

    def run(self, context, tasks):
        spec, cluster, calibration, settings = context
        store = CheckpointStore(self.checkpoint_dir)
        queue = FileWorkQueue.create(
            self.queue_dir, spec, cluster, calibration, settings=settings
        )
        for _index, key, cell in tasks:
            queue.enqueue(key, cell)
        remaining = {key: index for index, key, _cell in tasks}

        fleet = _resolve_processes(self.processes, len(tasks))
        procs: dict[str, subprocess.Popen] = {}
        spawned = 0
        # Enough restarts for every cell to exhaust its retries plus the
        # initial fleet; beyond that the environment is broken (e.g. the
        # worker can't import) and we bail out instead of spinning.
        spawn_budget = fleet + len(tasks) * (MAX_RETRIES + 1)
        try:
            while remaining:
                for key in sorted(queue.done_keys() & remaining.keys()):
                    outcome = store.load(key)
                    if outcome is None:
                        raise SweepError(
                            f"cell {key} marked done but its checkpoint is "
                            f"missing or unreadable under {self.checkpoint_dir}"
                        )
                    # The worker that computed the cell wrote the timing
                    # sidecar itself; surface it so the service treats
                    # every backend uniformly.  Metrics stay None: workers
                    # with a recorder write their own snapshot files.
                    record = store.load_timing_record(key) or {}
                    yield remaining.pop(key), outcome, CellReport(
                        seconds=record.get("seconds")
                    )
                if not remaining:
                    break

                failed = sorted(queue.failed_keys() & remaining.keys())
                if failed:
                    raise SweepError(
                        f"{len(failed)} cell(s) exhausted the retry cap "
                        f"({MAX_RETRIES}): {', '.join(failed)}"
                    )

                for worker_id, proc in list(procs.items()):
                    if proc.poll() is not None:
                        del procs[worker_id]
                        queue.requeue_claims_of(worker_id)
                queue.requeue_stale(CLAIM_LEASE)

                can_spawn = spawned < spawn_budget
                while (
                    len(procs) < fleet
                    and can_spawn
                    and queue.pending_keys()
                ):
                    worker_id = f"w{spawned}"
                    procs[worker_id] = self._spawn(
                        worker_id,
                        inject_crash=(
                            spawned == 0
                            and self.crash_first_worker_after is not None
                        ),
                    )
                    spawned += 1
                    can_spawn = spawned < spawn_budget

                if not procs and not can_spawn:
                    raise SweepError(
                        "file-queue workers keep dying before finishing the "
                        f"sweep (launched {spawned}); see worker stderr"
                    )
                time.sleep(_POLL_INTERVAL)
        finally:
            for proc in procs.values():
                proc.terminate()
            for proc in procs.values():
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
