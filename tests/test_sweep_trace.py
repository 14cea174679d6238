"""Tests for the sweep-level Chrome trace (queue events + sidecars).

Covers the queue's advisory event log (one single-writer file per
actor, claim/complete/release/requeue records), the attributed timing
sidecars, and the end-to-end trace build: a real file-queue sweep must
yield one slice per completed cell on the lane of the worker that
computed it, loadable as Trace Event Format.
"""

from __future__ import annotations

import json

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import Method
from repro.search.service import (
    CheckpointStore,
    FileWorkQueue,
    SweepCell,
    SweepOptions,
    cell_key,
    run_sweep,
)
from repro.search.service.worker import run_worker
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.viz.sweep_trace import sweep_trace, write_sweep_trace

CELLS = [
    SweepCell(Method.NO_PIPELINE, 8),
    SweepCell(Method.NO_PIPELINE, 64),
    SweepCell(Method.DEPTH_FIRST, 8),
]


def make_queue(root):
    return FileWorkQueue.create(
        root, MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION
    )


class TestEventLog:
    def test_claim_complete_events_recorded(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("worker-a")
        queue.complete(claim)
        events = queue.events()
        kinds = [(e["event"], e["key"], e["worker"]) for e in events]
        assert ("claim", "k1", "worker-a") in kinds
        assert ("complete", "k1", "worker-a") in kinds
        claim_event = next(e for e in events if e["event"] == "claim")
        assert claim_event["method"] == CELLS[0].method.value
        assert claim_event["batch_size"] == CELLS[0].batch_size

    def test_release_and_requeue_events(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        queue.enqueue("k1", CELLS[0])
        claim = queue.claim("worker-a")
        assert queue.release(claim)
        claim = queue.claim("worker-b")
        requeued, _ = queue.requeue_stale(0.0, now=claim.path.stat().st_mtime + 10)
        assert requeued == ["k1"]
        kinds = {(e["event"], e["worker"]) for e in queue.events()}
        assert ("release", "worker-a") in kinds
        assert ("requeue", "worker-b") in kinds

    def test_events_are_time_ordered_and_attributed(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        for i, cell in enumerate(CELLS):
            queue.enqueue(f"k{i}", cell)
        for worker in ("w-a", "w-b", "w-a"):
            claim = queue.claim(worker)
            queue.complete(claim)
        events = queue.events()
        times = [e["t"] for e in events]
        assert times == sorted(times)
        assert all(e["actor"] for e in events)

    def test_create_resets_event_log(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        queue.record_event("w", "claim", "k")
        assert queue.events()
        make_queue(tmp_path / "q")
        assert queue.events() == []


class TestTimingAttribution:
    def test_sidecar_round_trips_worker_and_start(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store_timing("k1", 1.5, worker="host-1", started_at=1000.0)
        record = store.load_timing_record("k1")
        assert record["worker"] == "host-1"
        assert record["started_at"] == 1000.0
        assert store.load_timing("k1") == 1.5

    def test_plain_sidecar_still_loads(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store_timing("k1", 2.0)
        assert store.load_timing("k1") == 2.0
        record = store.load_timing_record("k1")
        assert "worker" not in record


class TestSweepTrace:
    def test_file_queue_sweep_produces_one_slice_per_cell(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        outcomes = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(
                backend="file-queue",
                checkpoint_dir=checkpoint_dir,
                processes=2,
            ),
        )
        assert len(outcomes) == len(CELLS)
        trace = sweep_trace(checkpoint_dir, checkpoint_dir / "queue")
        events = trace["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        keys = {
            cell_key(MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, c)
            for c in CELLS
        }
        assert {s["args"]["key"] for s in slices} == keys
        # Queue events bracket ownership; they are preferred over sidecars.
        assert all(s["args"]["source"] == "queue" for s in slices)
        assert all(s["dur"] >= 0 for s in slices)
        # Every slice sits on a named worker lane.
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names
        assert all(n.startswith("worker ") for n in names)
        # Slice labels are human-readable cells, not raw hashes.
        assert {s["name"] for s in slices} == {
            f"{c.method.value} B={c.batch_size}" for c in CELLS
        }

    def test_sidecar_fallback_without_queue_dir(self, tmp_path):
        # A worker-driven run traced without the queue directory still
        # yields slices from the attributed sidecars.
        queue_dir = tmp_path / "q"
        checkpoint_dir = tmp_path / "ckpt"
        queue = make_queue(queue_dir)
        for cell in CELLS[:2]:
            queue.enqueue(
                cell_key(MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell),
                cell,
            )
        completed = run_worker(
            str(queue_dir), str(checkpoint_dir), worker_id="solo"
        )
        assert completed == 2
        trace = sweep_trace(checkpoint_dir)  # no queue_dir
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 2
        assert all(s["args"]["source"] == "sidecar" for s in slices)

    def test_write_sweep_trace_is_loadable_json(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.store_timing("k1", 1.0, worker="w", started_at=10.0)
        path = write_sweep_trace(tmp_path / "trace.json", tmp_path / "ckpt")
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        assert data["displayTimeUnit"] == "ms"

    def test_empty_directories_yield_empty_trace(self, tmp_path):
        trace = sweep_trace(tmp_path / "ckpt")
        assert trace["traceEvents"] == []


class TestTornEventLogs:
    """A killed worker's half-written debris must never break a reader."""

    def test_truncated_final_line_is_skipped(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        queue.enqueue("k1", CELLS[0])
        queue.complete(queue.claim("w-a"))
        # A worker killed mid-append leaves a truncated final line, here
        # torn inside a multi-byte UTF-8 sequence.
        log = tmp_path / "q" / "events" / "w-a.jsonl"
        with open(log, "ab") as fh:
            fh.write(b'{"event": "claim", "t": 9.0, "wor\xe2')
        events = queue.events()
        assert [(e["event"], e["key"]) for e in events] == [
            ("claim", "k1"),
            ("complete", "k1"),
        ]

    def test_garbage_lines_and_bad_types_are_tolerated(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        queue.enqueue("k1", CELLS[0])
        queue.complete(queue.claim("w-a"))
        (tmp_path / "q" / "events" / "other.jsonl").write_bytes(
            b"not json at all\n"
            b'"a bare string"\n'
            b'{"event": "claim", "key": "k2", "worker": "w-b", "t": "soon"}\n'
            b"\xff\xfe\n"
        )
        events = queue.events()  # non-numeric t must not break the sort
        assert ("complete", "k1") in {
            (e["event"], e.get("key")) for e in events
        }
        # The trace build skips what it cannot time but still renders
        # the healthy worker's slices.
        trace = sweep_trace(tmp_path / "ckpt", tmp_path / "q")
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["args"]["key"] == "k1"

    def test_malformed_timing_sidecar_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.store_timing("good", 1.0, worker="w", started_at=10.0)
        # Nonsense field types in another cell's sidecar.
        (tmp_path / "ckpt" / "bad.time.json").write_text(
            '{"seconds": "fast", "worker": "w", "started_at": null}'
        )
        trace = sweep_trace(tmp_path / "ckpt")
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [s["args"]["key"] for s in slices] == ["good"]
