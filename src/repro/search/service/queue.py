"""File-based work queue: cells claimed by atomic rename on a shared FS.

This is the multi-machine backend's substrate.  The queue is a directory
(typically on a filesystem shared by every worker) laid out as::

    context.json          serialized (spec, cluster, calibration, settings)
    pending/<key>.json    claimable cell: method, batch size, attempt count
    claimed/<key>--<worker>.json   a worker owns the cell
    done/<key>.json       finished (its checkpoint was written first)
    failed/<key>.json     exhausted the retry cap
    events/<actor>.jsonl  advisory claim/complete/release/requeue log

The event log feeds the sweep-level Chrome trace
(:mod:`repro.viz.sweep_trace`): every actor — worker or janitor —
appends to its *own* file (single writer per file, so appends need no
cross-machine locking), and a claim/complete pair brackets exactly the
wall-clock one worker spent owning one cell.  Events are advisory:
writes are best-effort and correctness never depends on them.

A worker claims a cell by renaming its pending file into ``claimed/``
under the worker's own id.  POSIX rename is atomic, so exactly one of
any number of racing workers wins; the losers see ``FileNotFoundError``
and move on to the next pending file.  Completion is the reverse rename
into ``done/`` — performed only *after* the cell's checkpoint hit disk,
so a ``done`` marker always implies a readable result.

Crash recovery never loses a cell: a dead worker leaves its claim file
behind, and the coordinator (or any janitor) moves it back to pending
with the attempt count incremented via :meth:`FileWorkQueue.requeue_claims_of`
(worker known dead) or :meth:`FileWorkQueue.requeue_stale` (lease
expired — the only option across machines, where liveness can't be
probed).  Past :data:`MAX_RETRIES` requeues the cell lands in ``failed/``
and the sweep reports it loudly rather than silently dropping it.

A claim doubles as a *lease* keyed on the claim file's mtime, and every
claim holds the same one: :data:`CLAIM_LEASE`.  A live worker renews
its claim every :data:`HEARTBEAT_INTERVAL` seconds by touching the file
(:meth:`FileWorkQueue.renew`, via a :class:`LeaseHeartbeat` thread), so
``requeue_stale`` only ever expires claims whose holder has actually
stopped heartbeating — not merely one that drew a slow cell.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.hardware.cluster import ClusterSpec
from repro.models.spec import TransformerSpec
from repro.obs import clock as obs_clock
from repro.obs import get_recorder
from repro.parallel.config import Method
from repro.search.cell import DEFAULT_SETTINGS, SearchSettings, SweepCell
from repro.search.service.serialize import (
    FORMAT_VERSION,
    canonical_dumps,
    context_from_json,
    context_to_json,
    settings_from_json,
    settings_to_json,
)
from repro.sim.calibration import Calibration
from repro.utils import atomic_write

__all__ = [
    "CLAIM_LEASE",
    "HEARTBEAT_INTERVAL",
    "MAX_RETRIES",
    "ClaimedCell",
    "FileWorkQueue",
    "LeaseHeartbeat",
    "check_worker_id",
]

#: Seconds a claim stays valid without renewal.  It bounds how long the
#: cell of a worker that died where no pid can be probed (another
#: machine, or a process the coordinator did not launch) stays stuck.
CLAIM_LEASE = 300.0
#: Seconds between a live worker's claim renewals: a tenth of the lease,
#: so several missed ticks (a GC pause, a slow shared FS) cannot expire
#: a live worker's claim.
HEARTBEAT_INTERVAL = CLAIM_LEASE / 10
#: Requeues a cell gets after its worker crashed, released it or let its
#: lease expire; one more sends it to ``failed/``.
MAX_RETRIES = 2

_SUBDIRS = ("pending", "claimed", "done", "failed")
#: Advisory per-actor event logs (not a queue state).
_EVENTS_DIR = "events"
#: Separates the cell key from the worker id in claim filenames.  Keys
#: are hex so the separator can never appear inside one.
_CLAIM_SEP = "--"


def check_worker_id(worker_id: str) -> None:
    """Refuse an id that cannot name a claim file.

    Raises:
        ValueError: ``worker_id`` is empty or contains ``/`` or the
            ``--`` that separates it from the cell key.
    """
    if _CLAIM_SEP in worker_id or "/" in worker_id or not worker_id:
        raise ValueError(f"invalid worker id {worker_id!r}")


@dataclass(frozen=True)
class ClaimedCell:
    """A cell this process has exclusive ownership of."""

    key: str
    cell: SweepCell
    attempts: int
    path: Path


class FileWorkQueue:
    """One sweep's work queue rooted at a directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(
        cls,
        root: str | os.PathLike,
        spec: TransformerSpec,
        cluster: ClusterSpec,
        calibration: Calibration,
        *,
        settings: SearchSettings = DEFAULT_SETTINGS,
    ) -> "FileWorkQueue":
        """Initialize (or reset) a queue directory for a new sweep run.

        Any state left by a previous, interrupted run is cleared — cell
        results live in the checkpoint store, not the queue, so a stale
        queue holds nothing worth keeping.
        """
        queue = cls(root)
        queue.root.mkdir(parents=True, exist_ok=True)
        for name in (*_SUBDIRS, _EVENTS_DIR):
            sub = queue.root / name
            sub.mkdir(exist_ok=True)
            for stale in sub.iterdir():
                stale.unlink()
        payload = {
            "format": FORMAT_VERSION,
            "settings": settings_to_json(settings),
            **context_to_json(spec, cluster, calibration),
        }
        atomic_write(
            queue.root / "context.json",
            canonical_dumps(payload).encode("utf-8"),
        )
        return queue

    @classmethod
    def open(cls, root: str | os.PathLike) -> "FileWorkQueue":
        """Attach to an existing queue (the worker-side entry point)."""
        queue = cls(root)
        if not (queue.root / "context.json").is_file():
            raise ValueError(
                f"{queue.root} is not an initialized work queue "
                "(no context.json); create one with FileWorkQueue.create()"
            )
        return queue

    def load_context(
        self,
    ) -> tuple[TransformerSpec, ClusterSpec, Calibration, SearchSettings]:
        """The sweep inputs every worker searches against."""
        payload = json.loads((self.root / "context.json").read_text())
        if not isinstance(payload, dict):
            raise ValueError("queue context is not a JSON object")
        if payload.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"queue context format {payload.get('format')!r} != "
                f"{FORMAT_VERSION}"
            )
        return (
            *context_from_json(payload),
            settings_from_json(payload["settings"]),
        )

    # ------------------------------------------------------------- plumbing

    def _dir(self, name: str) -> Path:
        return self.root / name

    def _keys_in(self, name: str) -> set[str]:
        return {p.stem for p in self._dir(name).glob("*.json")}

    # ---------------------------------------------------------- event log

    def record_event(
        self, actor: str, event: str, key: str, **extra
    ) -> None:
        """Append one advisory event to ``events/<actor>.jsonl``.

        One file per actor keeps every file single-writer, so appends
        are safe without locking even across machines sharing the
        filesystem.  Best-effort by design: a full disk or a flaky
        shared FS must never take down a worker over trace data.
        """
        get_recorder().count(f"queue.events.{event}")
        payload = {"t": obs_clock.wall(), "event": event, "key": key, **extra}
        path = self._dir(_EVENTS_DIR) / f"{actor}.jsonl"
        try:
            path.parent.mkdir(exist_ok=True)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(canonical_dumps(payload) + "\n")
        except OSError:
            pass

    def events(self) -> list[dict]:
        """Every recorded event across all actors, time-ordered.

        The actor (the file that recorded the event) is exposed as the
        ``actor`` field; unreadable lines are skipped — the log is
        advisory.
        """
        out: list[dict] = []
        events_dir = self._dir(_EVENTS_DIR)
        if not events_dir.is_dir():
            return out
        for path in sorted(events_dir.glob("*.jsonl")):
            try:
                # errors="replace": a worker killed mid-append can leave a
                # torn multi-byte sequence on its final line; the log is
                # advisory, so salvage the readable lines.
                lines = path.read_text(errors="replace").splitlines()
            except OSError:
                continue
            for line in lines:
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(payload, dict):
                    payload.setdefault("actor", path.stem)
                    out.append(payload)

        def sort_time(event: dict) -> float:
            t = event.get("t", 0.0)
            return t if isinstance(t, (int, float)) else 0.0

        out.sort(key=sort_time)
        return out

    # -------------------------------------------------------------- enqueue

    def enqueue(self, key: str, cell: SweepCell, *, attempts: int = 0) -> None:
        """Make a cell claimable (idempotent: last write wins)."""
        payload = {
            "format": FORMAT_VERSION,
            "key": key,
            "method": cell.method.value,
            "batch_size": cell.batch_size,
            "attempts": attempts,
        }
        atomic_write(
            self._dir("pending") / f"{key}.json",
            canonical_dumps(payload).encode("utf-8"),
        )

    # ---------------------------------------------------------------- claim

    def claim(self, worker_id: str) -> ClaimedCell | None:
        """Atomically take ownership of one pending cell, if any.

        Scans pending files in sorted order and renames the first one it
        wins; returns ``None`` when nothing is claimable right now (other
        workers may still be computing).
        """
        check_worker_id(worker_id)
        claimed_dir = self._dir("claimed")
        for path in sorted(self._dir("pending").glob("*.json")):
            key = path.stem
            dest = claimed_dir / f"{key}{_CLAIM_SEP}{worker_id}.json"
            try:
                os.replace(path, dest)
            except FileNotFoundError:
                continue  # another worker won this cell
            # Rename preserves the enqueue-time mtime; reset it so the
            # stale-claim lease is measured from the claim, not from
            # however long the cell sat in pending/.
            os.utime(dest)
            parsed = self._parse_claim(dest)
            if parsed is None:
                # Unreadable task file: park it in failed/ so the sweep
                # reports it instead of crash-looping every worker.
                os.replace(dest, self._dir("failed") / f"{key}.json")
                continue
            _key, cell, attempts = parsed
            self.record_event(
                worker_id, "claim", key,
                worker=worker_id,
                method=cell.method.value,
                batch_size=cell.batch_size,
                attempts=attempts,
            )
            return ClaimedCell(key=key, cell=cell, attempts=attempts, path=dest)
        return None

    @staticmethod
    def _claim_worker(claim: ClaimedCell) -> str:
        """The worker id a claim file is held under."""
        stem = claim.path.stem
        return stem.split(_CLAIM_SEP, 1)[1] if _CLAIM_SEP in stem else stem

    def complete(self, claim: ClaimedCell) -> None:
        """Mark a claimed cell finished.

        Call only after the cell's checkpoint is durably stored — the
        done marker is the signal coordinators trust.  Tolerates the
        claim having been leased away mid-computation (requeued as
        stale): the checkpoint exists, so the done marker is written
        directly and whoever re-claims the duplicate will no-op.
        """
        dest = self._dir("done") / f"{claim.key}.json"
        try:
            os.replace(claim.path, dest)
        except FileNotFoundError:
            payload = {
                "format": FORMAT_VERSION,
                "key": claim.key,
                "method": claim.cell.method.value,
                "batch_size": claim.cell.batch_size,
                "attempts": claim.attempts,
            }
            atomic_write(dest, canonical_dumps(payload).encode("utf-8"))
        worker = self._claim_worker(claim)
        self.record_event(worker, "complete", claim.key, worker=worker)

    def renew(self, claim: ClaimedCell) -> bool:
        """Refresh a claim's lease by touching its file (heartbeat).

        Returns False — without raising — when the claim file is gone:
        either the lease already expired and a janitor requeued the cell
        (the worker should finish anyway; ``complete`` tolerates this),
        or the cell was completed.  Touching is race-free against the
        rename-based expiry: ``os.utime`` on a path that was renamed
        away simply fails, it can never resurrect the moved file.
        """
        try:
            os.utime(claim.path)
        except FileNotFoundError:
            return False
        return True

    def release(self, claim: ClaimedCell) -> bool:
        """Give a claimed cell back (worker-side graceful failure).

        Returns True if the cell was requeued, False if it exhausted the
        retry cap and moved to ``failed/``.
        """
        worker = self._claim_worker(claim)
        self.record_event(worker, "release", claim.key, worker=worker)
        return self._requeue(claim.path, claim.key, claim.cell, claim.attempts)

    # -------------------------------------------------------------- recovery

    def _requeue(
        self, claim_path: Path, key: str, cell: SweepCell, attempts: int
    ) -> bool:
        if attempts + 1 > MAX_RETRIES:
            try:
                os.replace(claim_path, self._dir("failed") / f"{key}.json")
            except FileNotFoundError:
                # The claim vanished between parsing and now — the worker
                # completed it (or another janitor recovered it).  The
                # done marker, not failed/, reflects reality.
                return True
            return False
        # Pending first, claim removal second: a crash in between leaves a
        # duplicate claim file, which is harmless (results are idempotent
        # and checkpoint writes are atomic), whereas the other order could
        # lose the cell.
        self.enqueue(key, cell, attempts=attempts + 1)
        claim_path.unlink(missing_ok=True)
        return True

    def _parse_claim(self, path: Path) -> tuple[str, SweepCell, int] | None:
        key = path.stem.split(_CLAIM_SEP, 1)[0]
        try:
            payload = json.loads(path.read_text())
            cell = SweepCell(
                method=Method(payload["method"]),
                batch_size=int(payload["batch_size"]),
            )
            attempts = int(payload.get("attempts", 0))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None
        return key, cell, attempts

    def requeue_claims_of(self, worker_id: str) -> tuple[list[str], list[str]]:
        """Requeue every cell a (known dead) worker was holding.

        Returns ``(requeued_keys, exhausted_keys)``; exhausted cells moved
        to ``failed/``.
        """
        requeued: list[str] = []
        exhausted: list[str] = []
        janitor = f"janitor-{os.getpid()}"
        pattern = f"*{_CLAIM_SEP}{worker_id}.json"
        for path in sorted(self._dir("claimed").glob(pattern)):
            parsed = self._parse_claim(path)
            if parsed is None:
                continue
            key, cell, attempts = parsed
            if self._requeue(path, key, cell, attempts):
                requeued.append(key)
                self.record_event(janitor, "requeue", key, worker=worker_id)
            else:
                exhausted.append(key)
                self.record_event(janitor, "fail", key, worker=worker_id)
        return requeued, exhausted

    def requeue_stale(
        self, lease_seconds: float, *, now: float | None = None
    ) -> tuple[list[str], list[str]]:
        """Requeue claims older than ``lease_seconds``.

        The cross-machine recovery path: remote worker liveness can't be
        probed, so a claim doubles as a lease keyed on its file mtime.
        """
        if now is None:
            now = obs_clock.wall()
        requeued: list[str] = []
        exhausted: list[str] = []
        janitor = f"janitor-{os.getpid()}"
        for path in sorted(self._dir("claimed").glob("*.json")):
            try:
                age = now - path.stat().st_mtime
            except FileNotFoundError:
                continue
            if age < lease_seconds:
                continue
            holder = path.stem.split(_CLAIM_SEP, 1)[-1]
            parsed = self._parse_claim(path)
            if parsed is None:
                continue
            key, cell, attempts = parsed
            if self._requeue(path, key, cell, attempts):
                requeued.append(key)
                self.record_event(janitor, "requeue", key, worker=holder)
            else:
                exhausted.append(key)
                self.record_event(janitor, "fail", key, worker=holder)
        return requeued, exhausted

    # ------------------------------------------------------------ inspection

    def pending_keys(self) -> set[str]:
        return self._keys_in("pending")

    def claimed_keys(self) -> set[str]:
        return {
            p.stem.split(_CLAIM_SEP, 1)[0]
            for p in self._dir("claimed").glob("*.json")
        }

    def done_keys(self) -> set[str]:
        return self._keys_in("done")

    def failed_keys(self) -> set[str]:
        return self._keys_in("failed")


class LeaseHeartbeat:
    """Background lease renewal for one claim (a worker-side janitor foil).

    While active, a daemon thread touches the claim file every
    ``interval`` seconds so :meth:`FileWorkQueue.requeue_stale` sees a
    fresh mtime and leaves the cell alone, no matter how long the search
    takes.  Use as a context manager around the computation::

        with LeaseHeartbeat(queue, claim, interval=HEARTBEAT_INTERVAL):
            outcome = search(cell)

    The thread stops promptly on exit (the stop event interrupts the
    wait), and a vanished claim file — lease already expired, or the
    cell completed elsewhere — ends the heartbeat quietly: renewing is
    best-effort, correctness rests on completion being idempotent.
    """

    def __init__(
        self, queue: FileWorkQueue, claim: ClaimedCell, *, interval: float
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.queue = queue
        self.claim = claim
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Renewals performed (observable by tests and logs).
        self.renewals = 0

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                alive = self.queue.renew(self.claim)
            except OSError:
                # Transient shared-FS hiccup (EIO/ESTALE/EACCES on NFS):
                # keep heartbeating — dying here would silently reopen
                # the requeue-of-live-worker hole this thread closes.
                continue
            if not alive:
                return
            self.renewals += 1

    def __enter__(self) -> "LeaseHeartbeat":
        self._thread = threading.Thread(
            target=self._run,
            name=f"lease-heartbeat-{self.claim.key}",
            daemon=True,
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
