"""Standalone file-queue sweep worker.

Run ``python -m repro.search.service.worker --queue-dir Q --checkpoint-dir C``
on any machine that sees the queue's filesystem and it joins the sweep:
claim a cell, search it, checkpoint the outcome, mark it done, repeat.
Any number of workers cooperate without further coordination — the claim
protocol (:mod:`repro.search.service.queue`) guarantees each cell is
computed by one worker at a time, and content-hash checkpoint keys make
recomputation after a crash idempotent.

Workers exit when no pending work remains (default), or poll forever
with ``--wait`` — the mode for a standing fleet fed by multiple sweeps.
Bad input (an invalid ``--worker-id``, a ``--queue-dir`` whose context
cannot be loaded, an output directory that cannot be created) is a
usage error, refused before the worker creates anything.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
import uuid
from pathlib import Path

from repro.obs import (
    MetricsRegistry,
    get_recorder,
    recording,
    write_snapshot_line,
)
from repro.obs import clock as obs_clock
from repro.search.service.executors import _timed_search
from repro.search.service.memo import MemoStore
from repro.search.service.queue import (
    HEARTBEAT_INTERVAL,
    FileWorkQueue,
    LeaseHeartbeat,
    check_worker_id,
)
from repro.search.service.serialize import group_key
from repro.utils import create_output_dir

__all__ = ["default_worker_id", "main", "run_worker"]

#: Seconds a ``--wait`` worker sleeps while the queue has nothing to claim.
_POLL_INTERVAL = 0.5


def default_worker_id() -> str:
    """Host + pid + nonce: unique across a shared-filesystem fleet."""
    host = socket.gethostname().replace("--", "-")
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def run_worker(
    queue_dir: str,
    checkpoint_dir: str,
    *,
    worker_id: str | None = None,
    wait: bool = False,
    crash_after_claims: int | None = None,
    metrics_out: str | os.PathLike | None = None,
) -> int:
    """Drain the queue; returns the number of cells this worker completed.

    While a cell is searching, a :class:`LeaseHeartbeat` thread touches
    the claim file every :data:`HEARTBEAT_INTERVAL` seconds, so a slow
    cell is never mistaken for a dead worker by ``requeue_stale``
    janitors.

    ``crash_after_claims`` is a failure-injection hook for tests and the
    CI smoke run: after that many claims the worker dies via ``os._exit``
    with a claim in flight — indistinguishable, to the rest of the
    system, from a SIGKILL mid-cell.  A crashed worker's heartbeat dies
    with it, which is exactly what lets the lease expire.

    ``metrics_out`` enables observability for this worker's lifetime
    (claim/completion/checkpoint-hit counters, busy fraction, plus all
    the search- and engine-level metrics the recorder picks up) and
    appends one snapshot to ``<metrics_out>/<worker_id>.jsonl`` on exit
    — one file per actor, the same single-writer convention as the
    queue's event logs.
    """
    queue = FileWorkQueue.open(queue_dir)
    context = queue.load_context()
    store = MemoStore(checkpoint_dir)
    if worker_id is None:
        worker_id = default_worker_id()

    if metrics_out is None:
        return _drain(
            queue, context, store, worker_id,
            wait=wait, crash_after_claims=crash_after_claims,
        )
    registry = MetricsRegistry(actor=worker_id)
    try:
        with recording(registry):
            return _drain(
                queue, context, store, worker_id,
                wait=wait, crash_after_claims=crash_after_claims,
            )
    finally:
        write_snapshot_line(
            Path(metrics_out) / f"{worker_id}.jsonl", registry.snapshot()
        )


def _drain(
    queue: FileWorkQueue,
    context,
    store: MemoStore,
    worker_id: str,
    *,
    wait: bool,
    crash_after_claims: int | None,
) -> int:
    """The claim/search/checkpoint/complete loop behind :func:`run_worker`."""
    rec = get_recorder()
    # Every cell of one queue shares a context, hence one memo group.
    group = group_key(*context)
    run_started = obs_clock.perf()
    busy_seconds = 0.0
    completed = 0
    claims = 0
    while True:
        claim = queue.claim(worker_id)
        if claim is None:
            if not wait:
                break
            time.sleep(_POLL_INTERVAL)
            continue
        claims += 1
        rec.count("worker.claims")
        if crash_after_claims is not None and claims > crash_after_claims:
            os._exit(13)  # simulate SIGKILL holding the claim
        outcome = store.load(claim.key)
        if outcome is None:
            started_at = obs_clock.wall()
            try:
                with rec.span(
                    "worker.cell", key=claim.key, worker=worker_id
                ):
                    with LeaseHeartbeat(
                        queue, claim, interval=HEARTBEAT_INTERVAL
                    ) as heartbeat:
                        outcome, report = _timed_search(context, claim.cell)
                    rec.count("worker.heartbeat_renewals", heartbeat.renewals)
            except Exception:
                # Don't swallow the cell with the traceback: requeue (or
                # fail past the cap) before dying.
                queue.release(claim)
                raise
            elapsed = report.seconds
            busy_seconds += elapsed
            store.store(claim.key, outcome, group=group)
            # Timing sidecar after the result: a crash in between loses
            # only scheduling advice, never the outcome.  Worker and
            # start-time attribution feed the sweep-level Chrome trace.
            store.store_timing(
                claim.key, elapsed, worker=worker_id, started_at=started_at
            )
        else:
            rec.count("worker.checkpoint_hits")
        queue.complete(claim)
        completed += 1
        rec.count("worker.cells_completed")
    if rec.enabled:
        wall = obs_clock.perf() - run_started
        rec.gauge("worker.busy_fraction", busy_seconds / wall if wall > 0 else 0.0)
    return completed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="File-queue sweep worker: claims and searches grid "
        "cells until the queue drains."
    )
    parser.add_argument("--queue-dir", required=True)
    parser.add_argument("--checkpoint-dir", required=True)
    parser.add_argument(
        "--worker-id",
        default=None,
        help="unique claim id (default: host-pid-nonce)",
    )
    parser.add_argument(
        "--wait",
        action="store_true",
        help="poll for new work instead of exiting when the queue is empty",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="DIR",
        help="record observability metrics and append a snapshot to "
        "DIR/<worker-id>.jsonl on exit",
    )
    # Failure injection for tests/CI; deliberately undocumented in --help.
    parser.add_argument(
        "--crash-after-claims", type=int, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    # Refused before the output directories exist: a usage error
    # creates nothing.
    if args.worker_id is not None:
        try:
            check_worker_id(args.worker_id)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        FileWorkQueue.open(args.queue_dir).load_context()
    except (OSError, KeyError, TypeError, ValueError) as exc:
        parser.error(
            f"cannot load the context of --queue-dir {args.queue_dir}: {exc}"
        )
    if args.metrics_out is not None:
        create_output_dir(parser, "--metrics-out", Path(args.metrics_out))
    create_output_dir(parser, "--checkpoint-dir", Path(args.checkpoint_dir))
    completed = run_worker(
        args.queue_dir,
        args.checkpoint_dir,
        worker_id=args.worker_id,
        wait=args.wait,
        crash_after_claims=args.crash_after_claims,
        metrics_out=args.metrics_out,
    )
    print(f"worker finished: {completed} cell(s) completed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
