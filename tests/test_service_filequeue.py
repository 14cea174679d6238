"""Tests for the file-based work queue, its executor and its worker.

The claim protocol is exercised directly (two "workers" racing over the
same directory, requeue after crash, the retry cap) and end-to-end: a
two-worker sweep where the first worker is killed mid-cell must still
produce outcomes byte-identical to a serial run.  The worker's command
line refuses bad input before it creates anything.

No test waits on the wall clock for a lease to run out: claims are aged
past it with ``os.utime``, and a slow search waits for the heartbeat's
renewal instead of sleeping through it.
"""

from __future__ import annotations

import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import Method
from repro.search.grid import SearchOutcome, best_configuration
from repro.search.service import (
    DEFAULT_SETTINGS,
    CheckpointStore,
    FileQueueExecutor,
    FileWorkQueue,
    LeaseHeartbeat,
    SweepCell,
    SweepError,
    SweepOptions,
    cell_key,
    run_sweep,
)
from repro.search.service import executors as executors_mod
from repro.search.service import queue as queue_mod
from repro.search.service import worker as worker_mod
from repro.search.service.executors import worker_command
from repro.search.service.queue import (
    CLAIM_LEASE,
    HEARTBEAT_INTERVAL,
    MAX_RETRIES,
)
from repro.search.service.worker import run_worker
from repro.sim.calibration import DEFAULT_CALIBRATION

CELLS = [
    SweepCell(Method.NO_PIPELINE, 8),
    SweepCell(Method.NO_PIPELINE, 64),
    SweepCell(Method.DEPTH_FIRST, 8),
]


def make_queue(root, **kwargs):
    return FileWorkQueue.create(
        root, MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, **kwargs
    )


def keys_for(cells):
    return [
        cell_key(MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, c)
        for c in cells
    ]


def placeholder_outcome(cell):
    """A cheap outcome standing in for a search of ``cell``."""
    return SearchOutcome(
        method=cell.method, batch_size=cell.batch_size,
        best=None, n_tried=0, n_excluded=0,
    )


class IdleProc:
    """A launched worker that stays alive until terminated."""

    def poll(self):
        return None

    def terminate(self):
        pass

    def wait(self, timeout=None):
        return 0


def age_past_lease(path):
    """Backdate a claim file to twice the lease ago."""
    old = time.time() - 2 * CLAIM_LEASE
    os.utime(path, (old, old))


class RenewalGate:
    """Holds every ``FileWorkQueue.renew`` until the test admits it.

    :meth:`admit` lets one renewal through and returns once it has
    touched its claim, so the test orders each renewal after whatever it
    did before (aging the claim) with no sleep, and a heartbeat that
    stops renewing fails the test.  :meth:`open` lets every later
    renewal through, so the heartbeat can stop.
    """

    def __init__(self, monkeypatch):
        self._tickets = threading.Semaphore(0)
        self._renewed = threading.Semaphore(0)
        self._open = threading.Event()
        real_renew = FileWorkQueue.renew

        def renew(queue, claim):
            if not self._open.is_set():
                self._tickets.acquire(timeout=60)
            alive = real_renew(queue, claim)
            self._renewed.release()
            return alive

        monkeypatch.setattr(FileWorkQueue, "renew", renew)

    def admit(self) -> bool:
        """Let one renewal through; True once it has run."""
        self._tickets.release()
        return self._renewed.acquire(timeout=60)

    def open(self) -> None:
        self._open.set()
        self._tickets.release()


class TestClaimProtocol:
    def test_claim_complete_lifecycle(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        assert queue.pending_keys() == {"k1"}

        claim = queue.claim("worker-a")
        assert claim is not None
        assert claim.key == "k1"
        assert claim.cell == CELLS[0]
        assert claim.attempts == 0
        assert queue.pending_keys() == set()
        assert queue.claimed_keys() == {"k1"}

        queue.complete(claim)
        assert queue.done_keys() == {"k1"}
        assert queue.claimed_keys() == set()

    def test_concurrent_claims_get_distinct_cells(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        queue.enqueue("k2", CELLS[1])
        a = queue.claim("worker-a")
        b = queue.claim("worker-b")
        assert {a.key, b.key} == {"k1", "k2"}
        assert queue.claim("worker-c") is None

    def test_invalid_worker_id_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        for bad in ("", "a--b", "a/b"):
            with pytest.raises(ValueError):
                queue.claim(bad)

    def test_context_round_trips(self, tmp_path):
        make_queue(tmp_path)
        queue = FileWorkQueue.open(tmp_path)
        spec, cluster, calibration, settings = queue.load_context()
        assert spec == MODEL_6_6B
        assert cluster == DGX1_CLUSTER_64
        assert calibration == DEFAULT_CALIBRATION
        assert settings == DEFAULT_SETTINGS

    def test_open_requires_initialized_queue(self, tmp_path):
        with pytest.raises(ValueError, match="context.json"):
            FileWorkQueue.open(tmp_path / "nope")


class TestCrashRecovery:
    def test_requeue_claims_of_dead_worker(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        queue.claim("dead-worker")  # crashes here, claim left behind

        requeued, exhausted = queue.requeue_claims_of("dead-worker")
        assert requeued == ["k1"] and exhausted == []
        assert queue.pending_keys() == {"k1"}

        retry = queue.claim("worker-b")
        assert retry.attempts == 1  # the crash was counted

    def test_retry_cap_moves_cell_to_failed(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0], attempts=MAX_RETRIES - 1)
        queue.claim("w-0")
        assert queue.requeue_claims_of("w-0") == (["k1"], [])
        assert queue.claim("w-1").attempts == MAX_RETRIES
        assert queue.requeue_claims_of("w-1") == ([], ["k1"])
        assert queue.failed_keys() == {"k1"}
        assert queue.pending_keys() == set()

    def test_release_requeues_gracefully(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("w-0")
        assert queue.release(claim) is True
        assert queue.pending_keys() == {"k1"}
        assert queue.claimed_keys() == set()

    def test_requeue_stale_uses_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("remote-worker")
        mtime = claim.path.stat().st_mtime

        fresh = queue.requeue_stale(3600.0, now=mtime + 10)
        assert fresh == ([], [])
        assert queue.claimed_keys() == {"k1"}

        requeued, _ = queue.requeue_stale(3600.0, now=mtime + 7200)
        assert requeued == ["k1"]
        assert queue.pending_keys() == {"k1"}

    def test_lease_clock_starts_at_claim_not_enqueue(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        # Backdate the pending file: the cell sat unclaimed for "2 hours".
        task = tmp_path / "pending" / "k1.json"
        old = time.time() - 7200
        os.utime(task, (old, old))

        claim = queue.claim("w-a")
        # A lease far shorter than the queue wait must NOT expire a claim
        # taken just now.
        assert queue.requeue_stale(60.0, now=time.time() + 1) == ([], [])
        assert queue.claimed_keys() == {"k1"}
        assert claim.path.stat().st_mtime > old + 3600

    def test_complete_survives_lease_expiry(self, tmp_path):
        # A live worker whose claim was requeued as stale must still be
        # able to record completion (its checkpoint is already stored).
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("slow-worker")
        requeued, _ = queue.requeue_stale(0.0, now=claim.path.stat().st_mtime + 1)
        assert requeued == ["k1"]

        queue.complete(claim)  # must not raise
        assert queue.done_keys() == {"k1"}

    def test_exhausted_requeue_tolerates_vanished_claim(self, tmp_path):
        # The claim can disappear between parsing and the failed/ rename
        # (the worker completed it concurrently); that must not raise and
        # must not mark the finished cell failed.
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0], attempts=MAX_RETRIES)
        claim = queue.claim("w-0")
        claim.path.unlink()  # simulate the concurrent completion rename
        assert queue.release(claim) is True
        assert queue.failed_keys() == set()

    def test_busy_coordinator_requeues_expired_external_claim(
        self, tmp_path, monkeypatch
    ):
        # A worker the coordinator did not launch claims the cell and
        # dies; no pid can be reaped, so only the lease recovers it.  The
        # coordinator's own worker stays alive throughout, yet its next
        # poll requeues the expired claim, and its worker then finishes
        # the cell.
        key = keys_for(CELLS)[0]
        store = CheckpointStore(tmp_path / "ck")
        outcome = placeholder_outcome(CELLS[0])

        class LiveWorker(IdleProc):
            def __init__(self, cmd, **kwargs):
                # The external worker wins the only pending cell first.
                queue = FileWorkQueue.open(tmp_path / "q")
                age_past_lease(queue.claim("external").path)

        polls = []

        def sleep(seconds):
            # One coordinator poll ends here; the live worker takes the
            # cell as soon as it is pending again.
            polls.append(seconds)
            assert len(polls) < 5, "the expired claim was never requeued"
            queue = FileWorkQueue.open(tmp_path / "q")
            claim = queue.claim("w0")
            if claim is not None:  # requeued: the live worker computes it
                store.store(claim.key, outcome)
                queue.complete(claim)

        monkeypatch.setattr(executors_mod.subprocess, "Popen", LiveWorker)
        monkeypatch.setattr(executors_mod, "time", SimpleNamespace(sleep=sleep))
        executor = FileQueueExecutor(
            tmp_path / "q", tmp_path / "ck", processes=1
        )
        context = (
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            DEFAULT_SETTINGS,
        )
        results = list(executor.run(context, [(0, key, CELLS[0])]))

        assert [(index, got) for index, got, _report in results] == [
            (0, outcome)
        ]
        requeues = [
            event
            for event in FileWorkQueue(tmp_path / "q").events()
            if event["event"] == "requeue"
        ]
        assert [(e["key"], e["worker"]) for e in requeues] == [
            (key, "external")
        ]


class TestFleet:
    """The coordinator launches ``processes`` local workers, the CPU count
    when unset, and never more than there are cells."""

    @pytest.mark.parametrize(
        "processes, launched", [(1, 1), (3, 3), (5, 3), (None, 2)]
    )
    def test_fleet_follows_processes(
        self, tmp_path, monkeypatch, processes, launched
    ):
        spawned = []

        def spawn(executor, worker_id, *, inject_crash):
            spawned.append(worker_id)
            return IdleProc()

        def sleep(seconds):
            # The idle fleet's first poll ends here: every cell is
            # computed at once, so no replacement is ever launched.
            queue = FileWorkQueue.open(tmp_path / "q")
            store = CheckpointStore(tmp_path / "ck")
            while (claim := queue.claim("w")) is not None:
                store.store(claim.key, placeholder_outcome(claim.cell))
                queue.complete(claim)

        monkeypatch.setattr(executors_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(FileQueueExecutor, "_spawn", spawn)
        monkeypatch.setattr(executors_mod, "time", SimpleNamespace(sleep=sleep))
        executor = FileQueueExecutor(
            tmp_path / "q", tmp_path / "ck", processes=processes
        )
        context = (
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            DEFAULT_SETTINGS,
        )
        tasks = list(zip(range(len(CELLS)), keys_for(CELLS), CELLS))
        finished = sorted(
            index for index, _outcome, _report in executor.run(context, tasks)
        )
        assert finished == [0, 1, 2]
        assert len(spawned) == launched


class TestLeaseHeartbeat:
    """A live worker holding a slow cell must never lose it to a janitor."""

    def test_renew_refreshes_the_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("slow-worker")
        # Backdate the claim past the lease, then renew: the touched
        # mtime must be what requeue_stale measures against.
        age_past_lease(claim.path)
        assert queue.renew(claim) is True
        assert queue.requeue_stale(CLAIM_LEASE) == ([], [])
        assert queue.claimed_keys() == {"k1"}

    def test_renew_reports_vanished_claim(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("w-0")
        requeued, _ = queue.requeue_stale(0.0, now=claim.path.stat().st_mtime + 1)
        assert requeued == ["k1"]
        assert queue.renew(claim) is False  # expired; must not raise

    def test_heartbeat_thread_defeats_the_lease(self, tmp_path, monkeypatch):
        gate = RenewalGate(monkeypatch)
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("slow-worker")
        with LeaseHeartbeat(queue, claim, interval=0.01) as heartbeat:
            # The cell outlives the lease twice, and the heartbeat renews
            # it each time: one that renews once and stops fails here.
            for _ in range(2):
                age_past_lease(claim.path)
                assert gate.admit()
                assert queue.requeue_stale(CLAIM_LEASE) == ([], [])
            gate.open()
        assert heartbeat.renewals >= 2
        assert queue.claimed_keys() == {"k1"}
        queue.complete(claim)
        assert queue.done_keys() == {"k1"}

    def test_heartbeat_interval_validated(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("w-0")
        with pytest.raises(ValueError, match="interval"):
            LeaseHeartbeat(queue, claim, interval=0.0)

    def test_coordinator_spawns_workers_on_the_fixed_heartbeat(
        self, tmp_path, monkeypatch
    ):
        # Every worker renews its claim several times per lease, so the
        # coordinator's workers take no lease-dependent argument.
        spawned = []

        class FakeProc:
            def __init__(self, cmd, **kwargs):
                spawned.append(cmd)

        monkeypatch.setattr(executors_mod.subprocess, "Popen", FakeProc)
        executor = FileQueueExecutor(tmp_path / "q", tmp_path / "ck")
        executor._spawn("w0", inject_crash=False)
        assert spawned == [
            worker_command(tmp_path / "q", tmp_path / "ck", worker_id="w0")
        ]
        assert CLAIM_LEASE / HEARTBEAT_INTERVAL >= 3

    @staticmethod
    def slow_worker_run(tmp_path, monkeypatch, *, janitor_first):
        """One worker searches a cell that outlives the lease twice, and a
        janitor runs ``requeue_stale`` each time: after the heartbeat
        renewed the aged claim, or (``janitor_first``) once, before it
        could.

        Returns ``(queue, key, searches, requeued_keys, completed)``.
        """
        gate = RenewalGate(monkeypatch)
        monkeypatch.setattr(worker_mod, "HEARTBEAT_INTERVAL", 0.01)
        queue = make_queue(tmp_path / "q")
        key = keys_for(CELLS)[0]
        queue.enqueue(key, CELLS[0])

        searches = []
        requeued = []
        real_search = worker_mod._timed_search

        def slow_search(context, cell):
            searches.append(cell)
            result = real_search(context, cell)
            [claim_path] = (tmp_path / "q" / "claimed").glob("*.json")
            for _ in range(1 if janitor_first else 2):
                age_past_lease(claim_path)  # the cell outlives the lease
                if not janitor_first:
                    assert gate.admit()
                requeued.extend(queue.requeue_stale(CLAIM_LEASE)[0])
            gate.open()
            return result

        monkeypatch.setattr(worker_mod, "_timed_search", slow_search)
        completed = run_worker(
            str(tmp_path / "q"), str(tmp_path / "ck"), worker_id="slow-worker"
        )
        return queue, key, searches, requeued, completed

    def test_slow_worker_cell_not_requeued_end_to_end(
        self, tmp_path, monkeypatch
    ):
        """The ROADMAP regression scenario: a live worker computes a cell
        for longer than the lease while a janitor runs
        ``requeue_stale``; with the heartbeat the cell is never requeued,
        never re-executed, and completes exactly once."""
        queue, key, searches, requeued, completed = self.slow_worker_run(
            tmp_path, monkeypatch, janitor_first=False
        )
        assert requeued == []  # the live worker kept its lease
        assert len(searches) == 1  # never re-executed
        assert completed == 1
        assert queue.done_keys() == {key}
        assert queue.pending_keys() == set()
        assert queue.failed_keys() == set()
        assert CheckpointStore(tmp_path / "ck").load(key) is not None

    def test_claim_past_the_lease_before_renewal_expires(
        self, tmp_path, monkeypatch
    ):
        """Control for the regression test: a janitor that looks before
        the heartbeat renews the aged claim *does* requeue it — proving
        the test above exercises the heartbeat and not merely a
        generous lease."""
        queue, key, searches, requeued, _completed = self.slow_worker_run(
            tmp_path, monkeypatch, janitor_first=True
        )
        assert requeued == [key]
        # The worker then claims the requeued copy and finds its own
        # checkpoint: completion is idempotent and nothing is searched twice.
        assert len(searches) == 1
        assert queue.done_keys() == {key}
        assert queue.pending_keys() == set()


class TestWorkerFunction:
    """run_worker in-process: the subprocess entry minus the subprocess."""

    def test_worker_drains_queue_and_checkpoints(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        store_dir = tmp_path / "ck"
        keys = keys_for(CELLS)
        for key, cell in zip(keys, CELLS):
            queue.enqueue(key, cell)

        completed = run_worker(
            str(tmp_path / "q"), str(store_dir), worker_id="w-test"
        )
        assert completed == len(CELLS)
        assert queue.done_keys() == set(keys)
        store = CheckpointStore(store_dir)
        for key, cell in zip(keys, CELLS):
            expected = best_configuration(
                MODEL_6_6B, DGX1_CLUSTER_64, cell.method, cell.batch_size
            )
            assert store.load(key) == expected

    def test_worker_reuses_existing_checkpoint(self, tmp_path, monkeypatch):
        queue = make_queue(tmp_path / "q")
        store = CheckpointStore(tmp_path / "ck")
        key = keys_for(CELLS)[0]
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[0].method, CELLS[0].batch_size
        )
        store.store(key, outcome)
        queue.enqueue(key, CELLS[0])

        def boom(*a, **k):
            raise AssertionError("recomputed a checkpointed cell")

        monkeypatch.setattr(
            "repro.search.service.worker._timed_search", boom
        )
        assert run_worker(
            str(tmp_path / "q"), str(tmp_path / "ck"), worker_id="w"
        ) == 1
        assert queue.done_keys() == {key}


class TestWorkerCli:
    """The worker's command line refuses bad input before it creates
    anything: exit status 2 and one argparse error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--queue-dir", "{empty}"],  # no context.json
            ["--queue-dir", "{truncated}"],
            ["--checkpoint-dir", "{file}"],
            ["--worker-id", "a--b"],
            ["--metrics-out", "{file}/metrics"],
            # The coordinator sizes the fleet and a worker drains the
            # queue; neither is set per worker.
            ["--poll-interval", "1"],
            ["--max-cells", "1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, capsys):
        make_queue(tmp_path / "q")
        (tmp_path / "empty").mkdir()
        truncated = tmp_path / "truncated"
        context = make_queue(truncated).root / "context.json"
        context.write_bytes(context.read_bytes()[:40])
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [
            arg.replace("{empty}", str(tmp_path / "empty"))
            .replace("{truncated}", str(truncated))
            .replace("{file}", str(blocker))
            for arg in argv
        ]
        for flag, default in (
            ("--queue-dir", tmp_path / "q"),
            ("--checkpoint-dir", tmp_path / "ck"),
        ):
            if flag not in argv:
                argv += [flag, str(default)]
        with pytest.raises(SystemExit) as exc_info:
            worker_mod.main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert not (tmp_path / "ck").exists()
        assert blocker.is_file()


class TestFileQueueEndToEnd:
    def serial_reference(self):
        return run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(processes=1),
        )

    def test_two_worker_sweep_matches_serial(self, tmp_path):
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(
                backend="file-queue",
                checkpoint_dir=tmp_path / "ck",
                queue_dir=tmp_path / "q",
                processes=2,
            ),
        )
        assert got == self.serial_reference()

    def test_killed_worker_is_requeued_byte_identical(self, tmp_path):
        """The acceptance scenario: one worker dies mid-cell (SIGKILL
        semantics), its cell is requeued, and the final outcomes and
        checkpoint bytes match an uninterrupted serial run."""
        reference = self.serial_reference()
        keys = keys_for(CELLS)
        executor = FileQueueExecutor(
            tmp_path / "q",
            tmp_path / "ck",
            processes=2,
            crash_first_worker_after=1,
        )
        context = (
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            DEFAULT_SETTINGS,
        )
        tasks = list(zip(range(len(CELLS)), keys, CELLS))
        results = {
            index: outcome
            for index, outcome, _elapsed in executor.run(context, tasks)
        }
        assert [results[i] for i in range(len(CELLS))] == reference

        store = CheckpointStore(tmp_path / "ck")
        for key, outcome in zip(keys, reference):
            assert (
                store.path_for(key).read_bytes()
                == store.payload_bytes(key, outcome)
            )

    def test_exhausted_retries_raise_not_drop(self, tmp_path, monkeypatch):
        # A worker crashes before finishing a single cell: the sweep must
        # fail loudly once the retry cap is hit.  Crash injection only
        # applies to the first worker launched, so with no retries its
        # crashed cell fails immediately.
        monkeypatch.setattr(queue_mod, "MAX_RETRIES", 0)
        monkeypatch.setattr(executors_mod, "MAX_RETRIES", 0)
        executor = FileQueueExecutor(
            tmp_path / "q",
            tmp_path / "ck",
            processes=1,
            crash_first_worker_after=0,
        )
        context = (
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            DEFAULT_SETTINGS,
        )
        tasks = [(0, keys_for(CELLS)[0], CELLS[0])]
        with pytest.raises(SweepError, match="retry cap"):
            list(executor.run(context, tasks))
