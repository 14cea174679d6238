"""Tests for the sweep-level Chrome trace (timing sidecars + obs spans).

Covers the attributed timing sidecars and the end-to-end trace build:
a real sweep must yield one slice per computed cell on the lane of the
process that searched it — a ``pool-<pid>`` worker or, in process, the
coordinator — loadable as Trace Event Format.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import main
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.obs import MetricsRegistry, recording, write_snapshot_line
from repro.parallel.config import Method
from repro.search.service import (
    CheckpointStore,
    SweepCell,
    SweepOptions,
    cell_key,
    run_sweep,
)
from repro.search.service.serialize import FORMAT_VERSION
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.viz.sweep_trace import sweep_trace, write_sweep_trace

CELLS = [
    SweepCell(Method.NO_PIPELINE, 8),
    SweepCell(Method.NO_PIPELINE, 64),
    SweepCell(Method.DEPTH_FIRST, 8),
]


def _lanes(events):
    """Lane name of each pid, from the process_name metadata."""
    return {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }


class TestTimingAttribution:
    def test_sidecar_round_trips_worker_and_start(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store_timing("k1", 1.5, worker="host-1", started_at=1000.0)
        record = store.load_timing_record("k1")
        assert record["worker"] == "host-1"
        assert record["started_at"] == 1000.0
        assert record["seconds"] == 1.5

    def test_plain_sidecar_still_loads(self, tmp_path):
        # A sidecar without the attribution fields still gives its
        # duration; sweep-trace skips it (see TestTornInputs).
        store = CheckpointStore(tmp_path)
        store.timing_path_for("k1").write_text(json.dumps(
            {"format": FORMAT_VERSION, "key": "k1", "seconds": 2.0}
        ))
        record = store.load_timing_record("k1")
        assert record["seconds"] == 2.0
        assert "worker" not in record


class TestSweepTrace:
    def test_pool_sweep_produces_one_slice_per_cell(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        outcomes = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(checkpoint_dir=checkpoint_dir, processes=2),
        )
        assert len(outcomes) == len(CELLS)
        events = sweep_trace(checkpoint_dir)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert all(s["cat"] == "cell" for s in slices)
        keys = {
            cell_key(MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, c)
            for c in CELLS
        }
        assert sorted(s["args"]["key"] for s in slices) == sorted(keys)
        assert all(s["dur"] >= 0 for s in slices)
        # Every slice sits on the lane of the pool worker that searched it.
        lanes = _lanes(events)
        assert all(
            lanes[s["pid"]].startswith("worker pool-")
            and lanes[s["pid"]][len("worker pool-"):].isdigit()
            for s in slices
        )
        # Slice labels are human-readable cells, not raw hashes.
        assert {s["name"] for s in slices} == {
            f"{c.method.value} B={c.batch_size}" for c in CELLS
        }

    def test_pool_sweep_merges_the_coordinators_spans(self, tmp_path):
        # With a recorder installed, as --metrics-out installs one, the
        # coordinator's sweep.run span joins the workers' cell slices,
        # on its own lane.
        checkpoint_dir = tmp_path / "ckpt"
        with recording(MetricsRegistry(actor="coordinator")) as registry:
            run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=SweepOptions(
                    checkpoint_dir=checkpoint_dir, processes=2
                ),
            )
        write_snapshot_line(
            tmp_path / "metrics" / "coordinator.jsonl", registry.snapshot()
        )
        events = sweep_trace(checkpoint_dir, tmp_path / "metrics")["traceEvents"]
        lanes = _lanes(events)
        slices = [e for e in events if e["ph"] == "X"]
        cells = [s for s in slices if s["cat"] == "cell"]
        assert len(cells) == len(CELLS)
        assert all(lanes[s["pid"]].startswith("worker pool-") for s in cells)
        assert [
            (lanes[s["pid"]], s["name"]) for s in slices if s["cat"] == "obs"
        ] == [("worker coordinator", "sweep.run")]

    def test_in_process_sweep_traces_on_the_coordinator_lane(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[:2],
            options=SweepOptions(checkpoint_dir=checkpoint_dir, processes=1),
        )
        events = sweep_trace(checkpoint_dir)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        assert set(_lanes(events).values()) == {"worker coordinator"}

    def test_cli_traces_a_pool_sweep(self, tmp_path, capsys):
        # fig1 on a two-worker pool, then sweep-trace over its checkpoint
        # directory: one cell slice per computed cell, on pool lanes.
        checkpoint_dir = tmp_path / "ckpt"
        assert main(
            ["fig1", "--jobs", "2", "--checkpoint-dir", str(checkpoint_dir)]
        ) == 0
        out = tmp_path / "trace.json"
        assert main([
            "sweep-trace", "--checkpoint-dir", str(checkpoint_dir),
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        events = json.loads(out.read_text())["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(CheckpointStore(checkpoint_dir)) == 12
        assert all(s["cat"] == "cell" for s in slices)
        assert all(
            name.startswith("worker pool-") for name in _lanes(events).values()
        )

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


class TestTornInputs:
    """An interrupted sweep's half-written debris must never break a reader."""

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

    def test_torn_metrics_snapshot_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.store_timing("k1", 1.0, worker="pool-7", started_at=10.0)
        registry = MetricsRegistry(actor="coordinator")
        with registry.span("search.cell"):
            pass
        log = write_snapshot_line(
            tmp_path / "metrics" / "coordinator.jsonl", registry.snapshot()
        )
        # A process killed mid-append leaves a truncated final line.
        with open(log, "ab") as fh:
            fh.write(b'{"actor": "coordinator", "spans": [{"na\xe2')
        trace = sweep_trace(tmp_path / "ckpt", tmp_path / "metrics")
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert sorted((s["cat"], s["name"]) for s in slices) == [
            ("cell", "k1"),
            ("obs", "search.cell"),
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            b"[1, 2]",
            b"not json at all",
            b'{"format": 2, "key": "bad", "seco\xe2',
            {"key": "other"},
            {"format": 999},
            {"seconds": -1.0},
            {"seconds": None},
            {"worker": None},
            {"started_at": "soon"},
            {"seconds": True},
            {"started_at": 1.5e308, "seconds": 1.5e308},
        ],
        ids=[
            "not-an-object", "garbage", "torn-utf8", "key-mismatch",
            "wrong-format", "negative-seconds", "no-seconds", "no-worker",
            "start-not-a-number", "seconds-bool", "end-overflows",
        ],
    )
    def test_unusable_sidecar_is_skipped(self, tmp_path, payload):
        # Each payload is one way another cell's sidecar can be torn,
        # foreign or unattributed; dict payloads override fields of a
        # well-formed sidecar (None drops the field).
        store = CheckpointStore(tmp_path / "ckpt")
        store.store_timing("good", 1.0, worker="pool-7", started_at=10.0)
        if isinstance(payload, dict):
            record = {
                "format": FORMAT_VERSION, "key": "bad", "seconds": 2.0,
                "worker": "pool-8", "started_at": 11.0,
            }
            record.update(payload)
            payload = json.dumps(
                {k: v for k, v in record.items() if v is not None}
            ).encode()
        store.timing_path_for("bad").write_bytes(payload)
        trace = sweep_trace(tmp_path / "ckpt")
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [s["args"]["key"] for s in slices] == ["good"]

    @staticmethod
    def _trace_with_spans(tmp_path, spans):
        """The slices of a trace whose one snapshot holds ``spans``."""
        registry = MetricsRegistry(actor="pool-7")
        snapshot = registry.snapshot()
        snapshot["spans"] = spans
        write_snapshot_line(tmp_path / "metrics" / "pool.jsonl", snapshot)
        trace = sweep_trace(tmp_path / "ckpt", tmp_path / "metrics")
        return [e for e in trace["traceEvents"] if e["ph"] == "X"]

    @pytest.mark.parametrize(
        "span",
        [
            "search.cell",
            {"name": "x", "start": "soon", "end": 2.0},
            {"name": "x", "start": 1.0},
            {"name": 7, "start": 1.0, "end": 2.0},
            {"name": "x", "start": float("nan"), "end": 2.0},
            {"name": "x", "start": 1.0, "end": float("inf")},
        ],
        ids=[
            "not-an-object", "start-not-a-number", "no-end", "unnamed",
            "start-nan", "end-infinity",
        ],
    )
    def test_unusable_span_is_skipped(self, tmp_path, span):
        good = {"name": "search.cell", "start": 1.0, "end": 2.0}
        slices = self._trace_with_spans(tmp_path, [span, good])
        assert [(s["name"], s["dur"]) for s in slices] == [
            ("search.cell", 1e6)
        ]

    @staticmethod
    def _strict_json(text):
        """``json.loads`` that refuses NaN and the infinities."""

        def refuse(constant):
            raise ValueError(f"non-finite number {constant} in the trace")

        return json.loads(text, parse_constant=refuse)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["started_at", "seconds"])
    def test_non_finite_sidecar_leaves_a_strict_json_trace(
        self, tmp_path, field, value
    ):
        # json.loads reads these constants from a hand-edited sidecar;
        # the trace written next to it must not carry them on.  The bad
        # sidecar sorts first, so its start time would be the trace's
        # origin.
        store = CheckpointStore(tmp_path / "ckpt")
        store.store_timing("good", 1.0, worker="pool-7", started_at=10.0)
        record = {
            "format": FORMAT_VERSION, "key": "bad", "seconds": 2.0,
            "worker": "pool-8", "started_at": 11.0, field: float(value),
        }
        store.timing_path_for("bad").write_text(json.dumps(record))
        path = write_sweep_trace(tmp_path / "trace.json", tmp_path / "ckpt")
        events = self._strict_json(path.read_text())["traceEvents"]
        assert [
            (e["args"]["key"], e["ts"], e["dur"])
            for e in events if e["ph"] == "X"
        ] == [("good", 0.0, 1e6)]

    def test_times_that_overflow_once_scaled_never_reach_the_trace(
        self, tmp_path
    ):
        # Finite span times whose difference overflows.
        span = {"name": "x", "start": -1.7e308, "end": 1.7e308}
        assert self._trace_with_spans(tmp_path, [span]) == []

    def test_span_with_foreign_attrs_keeps_its_slice(self, tmp_path):
        span = {"name": "search.cell", "start": 1.0, "end": 2.0, "attrs": [1]}
        [piece] = self._trace_with_spans(tmp_path, [span])
        assert piece["args"] == {"key": "", "source": "obs"}

    def test_garbage_snapshot_lines_are_tolerated(self, tmp_path):
        registry = MetricsRegistry(actor="coordinator")
        with registry.span("search.cell"):
            pass
        log = tmp_path / "metrics" / "coordinator.jsonl"
        log.parent.mkdir()
        log.write_bytes(
            b"not json at all\n"
            b'"a bare string"\n'
            b'{"kind": "something-else", "spans": []}\n'
            b"\xff\xfe\n"
            + json.dumps(registry.snapshot()).encode()
            + b"\n"
        )
        trace = sweep_trace(tmp_path / "ckpt", tmp_path / "metrics")
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [(s["cat"], s["name"]) for s in slices] == [
            ("obs", "search.cell")
        ]
