"""Tests for the file-based work queue and its executor.

The claim protocol is exercised directly (two "workers" racing over the
same directory, requeue after crash, the retry cap) and end-to-end: a
two-worker sweep where the first worker is killed mid-cell must still
produce outcomes byte-identical to a serial run.
"""

from __future__ import annotations

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import Method
from repro.search.grid import best_configuration
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
        make_queue(tmp_path, max_retries=5)
        queue = FileWorkQueue.open(tmp_path)
        spec, cluster, calibration, settings = queue.load_context()
        assert spec == MODEL_6_6B
        assert cluster == DGX1_CLUSTER_64
        assert calibration == DEFAULT_CALIBRATION
        assert settings == DEFAULT_SETTINGS
        assert queue.max_retries == 5

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
        queue = make_queue(tmp_path, max_retries=1)
        queue.enqueue("k1", CELLS[0])
        queue.claim("w-0")
        assert queue.requeue_claims_of("w-0") == (["k1"], [])
        queue.claim("w-1")
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
        import os as _os
        import time as _time

        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        # Backdate the pending file: the cell sat unclaimed for "2 hours".
        task = tmp_path / "pending" / "k1.json"
        old = _time.time() - 7200
        _os.utime(task, (old, old))

        claim = queue.claim("w-a")
        # A lease far shorter than the queue wait must NOT expire a claim
        # taken just now.
        assert queue.requeue_stale(60.0, now=_time.time() + 1) == ([], [])
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
        queue = make_queue(tmp_path, max_retries=0)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("w-0")
        claim.path.unlink()  # simulate the concurrent completion rename
        assert queue.release(claim) is True
        assert queue.failed_keys() == set()

    def test_idle_coordinator_recovers_orphaned_external_claim(self, tmp_path):
        # An externally-launched worker (not one of the coordinator's
        # children) died holding a claim; once the coordinator is idle the
        # orphan lease requeues it instead of waiting forever.
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        queue.claim("external-worker")
        executor = FileQueueExecutor(
            tmp_path, tmp_path / "ck", orphan_lease=0.0
        )

        executor._recover_stale_claims(queue, idle=False)
        assert queue.claimed_keys() == {"k1"}  # not idle: wait politely
        executor._recover_stale_claims(queue, idle=True)
        assert queue.pending_keys() == {"k1"}


class TestLeaseHeartbeat:
    """A live worker holding a slow cell must never lose it to a janitor."""

    def test_renew_refreshes_the_lease(self, tmp_path):
        import os as _os
        import time as _time

        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("slow-worker")
        # Backdate the claim far past any lease, then renew: the touched
        # mtime must be what requeue_stale measures against.
        old = _time.time() - 7200
        _os.utime(claim.path, (old, old))
        assert queue.renew(claim) is True
        assert queue.requeue_stale(3600.0) == ([], [])
        assert queue.claimed_keys() == {"k1"}

    def test_renew_reports_vanished_claim(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("w-0")
        requeued, _ = queue.requeue_stale(0.0, now=claim.path.stat().st_mtime + 1)
        assert requeued == ["k1"]
        assert queue.renew(claim) is False  # expired; must not raise

    def test_heartbeat_thread_defeats_short_lease(self, tmp_path):
        import time as _time

        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("slow-worker")
        # Lease 10x the heartbeat interval: a loaded CI runner would
        # have to stall the heartbeat thread for ~a full second to
        # flake this, not just miss one tick.
        lease = 1.0
        with LeaseHeartbeat(queue, claim, interval=lease / 10) as heartbeat:
            deadline = _time.time() + 2 * lease  # "slow cell": 2 leases long
            while _time.time() < deadline:
                assert queue.requeue_stale(lease) == ([], [])
                _time.sleep(lease / 10)
        assert heartbeat.renewals > 0
        assert queue.claimed_keys() == {"k1"}
        queue.complete(claim)
        assert queue.done_keys() == {"k1"}

    def test_heartbeat_interval_validated(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("w-0")
        with pytest.raises(ValueError, match="interval"):
            LeaseHeartbeat(queue, claim, interval=0.0)

    def test_heartbeat_interval_derived_from_lease(self):
        from repro.search.service.queue import (
            DEFAULT_HEARTBEAT_INTERVAL,
            heartbeat_interval_for_lease,
        )

        # Short lease: a third, so several touches fit in one window.
        assert heartbeat_interval_for_lease(15.0) == pytest.approx(5.0)
        # Long lease: capped at the default.
        assert (
            heartbeat_interval_for_lease(3600.0) == DEFAULT_HEARTBEAT_INTERVAL
        )
        assert heartbeat_interval_for_lease(None) == DEFAULT_HEARTBEAT_INTERVAL
        with pytest.raises(ValueError, match="lease"):
            heartbeat_interval_for_lease(0.0)

    def test_coordinator_spawns_workers_with_lease_matched_heartbeat(
        self, tmp_path, monkeypatch
    ):
        from repro.search.service import executors as executors_mod

        spawned = []

        class FakeProc:
            def __init__(self, cmd, **kwargs):
                spawned.append(cmd)

        monkeypatch.setattr(executors_mod.subprocess, "Popen", FakeProc)
        executor = FileQueueExecutor(
            tmp_path / "q", tmp_path / "ck", stale_lease=9.0
        )
        executor._spawn("w0", inject_crash=False)
        [cmd] = spawned
        index = cmd.index("--heartbeat-interval")
        assert float(cmd[index + 1]) == pytest.approx(3.0)  # lease / 3

        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="stale_lease"):
                FileQueueExecutor(
                    tmp_path / "q", tmp_path / "ck", stale_lease=bad
                )

    def test_slow_worker_cell_not_requeued_end_to_end(
        self, tmp_path, monkeypatch
    ):
        """The ROADMAP regression scenario: a live worker computes a cell
        for longer than ``stale_lease`` while a janitor polls
        ``requeue_stale``; with the heartbeat the cell is never requeued,
        never re-executed, and completes exactly once."""
        import threading
        import time as _time

        from repro.search.service import worker as worker_mod

        queue = make_queue(tmp_path / "q")
        key = keys_for(CELLS)[0]
        queue.enqueue(key, CELLS[0])

        lease = 1.0  # 10x the heartbeat: stall-tolerant on loaded CI
        searches = []
        real_search = worker_mod._timed_search

        def slow_search(context, cell):
            searches.append(cell)
            outcome, elapsed = real_search(context, cell)
            _time.sleep(2 * lease)  # the cell outlives the lease
            return outcome, elapsed

        monkeypatch.setattr(worker_mod, "_timed_search", slow_search)

        completed = []
        worker = threading.Thread(
            target=lambda: completed.append(run_worker(
                str(tmp_path / "q"),
                str(tmp_path / "ck"),
                worker_id="slow-worker",
                heartbeat_interval=lease / 10,
            )),
        )
        worker.start()
        requeue_events = []
        while worker.is_alive():
            requeued, exhausted = queue.requeue_stale(lease)
            requeue_events += requeued + exhausted
            _time.sleep(lease / 10)
        worker.join()

        assert requeue_events == []  # the live worker kept its lease
        assert len(searches) == 1  # never re-executed
        assert completed == [1]
        assert queue.done_keys() == {key}
        assert queue.pending_keys() == set()
        assert queue.failed_keys() == set()
        assert CheckpointStore(tmp_path / "ck").load(key) is not None

    def test_without_heartbeat_short_lease_still_expires(
        self, tmp_path, monkeypatch
    ):
        """Control for the regression test: with the heartbeat disabled
        the same slow cell *does* get requeued — proving the test above
        exercises the heartbeat and not merely a generous lease."""
        import threading
        import time as _time

        from repro.search.service import worker as worker_mod

        queue = make_queue(tmp_path / "q")
        key = keys_for(CELLS)[0]
        queue.enqueue(key, CELLS[0])

        lease = 0.3
        real_search = worker_mod._timed_search

        def slow_search(context, cell):
            outcome, elapsed = real_search(context, cell)
            _time.sleep(3 * lease)
            return outcome, elapsed

        monkeypatch.setattr(worker_mod, "_timed_search", slow_search)

        worker = threading.Thread(
            target=lambda: run_worker(
                str(tmp_path / "q"),
                str(tmp_path / "ck"),
                worker_id="slow-worker",
                max_cells=1,
                heartbeat_interval=None,
            ),
        )
        worker.start()
        requeue_events = []
        while worker.is_alive():
            requeued, exhausted = queue.requeue_stale(lease)
            requeue_events += requeued + exhausted
            _time.sleep(lease / 3)
        worker.join()

        assert key in requeue_events  # the old wasteful behaviour
        assert queue.done_keys() == {key}  # completion still idempotent


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


class TestFileQueueEndToEnd:
    def serial_reference(self):
        return run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(backend="serial"),
        )

    def test_two_worker_sweep_matches_serial(self, tmp_path):
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(
                backend="file-queue",
                checkpoint_dir=tmp_path / "ck",
                queue_dir=tmp_path / "q",
                workers=2,
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
            workers=2,
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

    def test_exhausted_retries_raise_not_drop(self, tmp_path):
        # Every attempt crashes before finishing a single cell: the sweep
        # must fail loudly once the retry cap is hit.
        executor = FileQueueExecutor(
            tmp_path / "q",
            tmp_path / "ck",
            workers=1,
            max_retries=0,
            crash_first_worker_after=0,
        )
        # Crash injection only applies to the first worker launched; with
        # max_retries=0 its crashed cell fails immediately.
        context = (
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            DEFAULT_SETTINGS,
        )
        tasks = [(0, keys_for(CELLS)[0], CELLS[0])]
        with pytest.raises(SweepError, match="retry cap"):
            list(executor.run(context, tasks))
