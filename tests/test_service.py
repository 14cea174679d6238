"""Tests for the sweep service: serialization, checkpoints, backends."""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.models.presets import MODEL_6_6B
from repro.obs import MetricsRegistry, read_snapshots, recording
from repro.parallel.config import Method
from repro.search import grid as grid_module
from repro.search.cell import SearchSettings
from repro.search.grid import SearchOutcome, best_configuration
from repro.search.service import (
    CheckpointStore,
    FileWorkQueue,
    MemoStore,
    MultiprocessingExecutor,
    SweepCell,
    SweepOptions,
    cell_key,
    outcome_from_json,
    outcome_to_json,
    run_sweep,
)
from repro.search.service.progress import ProgressReporter
from repro.search.service.serialize import (
    context_from_json,
    context_to_json,
    result_from_json,
    result_to_json,
)
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.simulator import SimulationResult, simulate

#: Small, fast cells (6.6B no-pipeline spaces have ~2-20 candidates).
CELLS = [
    SweepCell(Method.NO_PIPELINE, 8),
    SweepCell(Method.NO_PIPELINE, 64),
    SweepCell(Method.DEPTH_FIRST, 8),
]


@pytest.fixture(scope="module")
def outcomes():
    return [
        best_configuration(MODEL_6_6B, DGX1_CLUSTER_64, c.method, c.batch_size)
        for c in CELLS
    ]


class TestSerialization:
    def test_outcome_round_trip_is_exact(self, outcomes):
        for outcome in outcomes:
            data = json.loads(json.dumps(outcome_to_json(outcome)))
            assert outcome_from_json(data) == outcome

    def test_none_best_round_trips(self):
        outcome = SearchOutcome(
            method=Method.BREADTH_FIRST, batch_size=4, best=None,
            n_tried=0, n_excluded=7,
        )
        assert outcome_from_json(outcome_to_json(outcome)) == outcome

    def test_result_with_timeline_round_trips(self, outcomes):
        best = outcomes[0].best
        result = simulate(
            MODEL_6_6B, best.config, DGX1_CLUSTER_64, record_events=True
        )
        assert len(result.timeline) > 0
        data = json.loads(json.dumps(result_to_json(result)))
        assert result_from_json(data) == result

    def test_context_round_trips(self):
        spec, cluster, calibration = context_from_json(
            json.loads(json.dumps(
                context_to_json(
                    MODEL_6_6B, DGX1_CLUSTER_64_ETHERNET, DEFAULT_CALIBRATION
                )
            ))
        )
        assert spec == MODEL_6_6B
        assert cluster == DGX1_CLUSTER_64_ETHERNET
        assert calibration == DEFAULT_CALIBRATION

    def test_malformed_outcome_raises(self):
        with pytest.raises((KeyError, TypeError, ValueError)):
            outcome_from_json({"method": "No pipeline"})
        with pytest.raises((KeyError, TypeError, ValueError)):
            outcome_from_json(
                {"method": "not-a-method", "batch_size": 8, "best": None,
                 "n_tried": 0, "n_excluded": 0}
            )


class TestCellKey:
    def args(self, **over):
        base = dict(
            spec=MODEL_6_6B,
            cluster=DGX1_CLUSTER_64,
            calibration=DEFAULT_CALIBRATION,
            cell=CELLS[0],
        )
        base.update(over)
        return base

    def test_deterministic(self):
        key = cell_key(**self.args())
        assert key == cell_key(**self.args())
        assert len(key) == 20
        int(key, 16)  # hex

    def test_sensitive_to_every_input(self):
        base = cell_key(**self.args())
        assert base != cell_key(**self.args(cell=SweepCell(Method.NO_PIPELINE, 16)))
        assert base != cell_key(
            **self.args(cell=SweepCell(Method.BREADTH_FIRST, 8))
        )
        assert base != cell_key(**self.args(cluster=DGX1_CLUSTER_64_ETHERNET))
        assert base != cell_key(
            **self.args(calibration=Calibration(fixed_step_overhead=1.0))
        )


class TestCheckpointStore:
    def test_store_load_round_trip(self, tmp_path, outcomes):
        store = CheckpointStore(tmp_path)
        store.store("aaaa", outcomes[0])
        assert store.load("aaaa") == outcomes[0]
        assert "aaaa" in store
        assert store.keys() == ["aaaa"]

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("feed") is None

    def test_bytes_are_canonical(self, tmp_path, outcomes):
        store = CheckpointStore(tmp_path)
        path = store.store("aaaa", outcomes[0])
        assert path.read_bytes() == store.payload_bytes("aaaa", outcomes[0])

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json at all {",
            b"[1, 2, 3]",
            b'{"format": 999, "key": "dead", "outcome": {}}',
            b'{"format": 1, "key": "dead"}',
            b'{"format": 1, "key": "dead", "outcome": {"method": "x"}}',
        ],
        ids=["garbage", "wrong-type", "wrong-version", "no-outcome",
             "bad-outcome"],
    )
    def test_corrupt_file_rejected_cleanly(self, tmp_path, payload):
        store = CheckpointStore(tmp_path)
        store.path_for("dead").write_bytes(payload)
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            assert store.load("dead") is None

    def test_truncated_checkpoint_rejected(self, tmp_path, outcomes):
        store = CheckpointStore(tmp_path)
        path = store.store("aaaa", outcomes[0])
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.warns(RuntimeWarning):
            assert store.load("aaaa") is None

    def test_key_mismatch_rejected(self, tmp_path, outcomes):
        # A checkpoint copied/renamed to the wrong key must not be trusted.
        store = CheckpointStore(tmp_path)
        store.path_for("bbbb").write_bytes(
            store.payload_bytes("aaaa", outcomes[0])
        )
        with pytest.warns(RuntimeWarning, match="key mismatch"):
            assert store.load("bbbb") is None


def _outcome(batch_size):
    return SearchOutcome(
        method=Method.NO_PIPELINE, batch_size=batch_size, best=None,
        n_tried=0, n_excluded=0,
    )


def _checkpoint_writer(root):
    store = CheckpointStore(root)
    return lambda n: store.store("k", _outcome(n))


def _timing_writer(root):
    store = CheckpointStore(root)
    return lambda n: store.store_timing("k", float(n))


def _manifest_writer(root):
    store = MemoStore(root)
    store.store("k1", _outcome(1))
    store.store("k2", _outcome(2))

    def write(n):
        # A store opened after a checkpoint was deleted rewrites its
        # manifest without that checkpoint's line.
        (root / f"k{n}.json").unlink()
        return MemoStore(root).manifest_path

    return write


def _queue_writer(root):
    queue = FileWorkQueue.create(
        root, MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION
    )

    def write(n):
        queue.enqueue("k", SweepCell(Method.NO_PIPELINE, n))
        return root / "pending" / "k.json"

    return write


def _full_disk(path, data):
    """``Path.write_bytes`` on a full disk: the file is created and part
    of the data lands before the write fails."""
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


class TestAtomicWrites:
    """Every file the sweep service replaces goes through one atomic
    write (``repro.utils.atomic_write``)."""

    @pytest.mark.parametrize(
        "writer",
        [_checkpoint_writer, _timing_writer, _manifest_writer, _queue_writer],
        ids=["checkpoint", "timing", "manifest", "queue"],
    )
    def test_a_full_disk_leaves_the_previous_file(
        self, tmp_path, monkeypatch, writer
    ):
        write = writer(tmp_path)
        path = write(1)
        before = path.read_bytes()
        monkeypatch.setattr(Path, "write_bytes", _full_disk)
        with pytest.raises(OSError) as raised:
            write(2)
        assert raised.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert list(tmp_path.rglob("*.tmp")) == []


class TestRunSweep:
    def test_serial_matches_direct_search(self, outcomes):
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(processes=1),
        )
        assert got == outcomes

    def test_duplicate_cells_searched_once(self, monkeypatch, outcomes):
        calls = []
        real = best_configuration

        def counting(spec, cluster, method, batch, calibration, settings):
            calls.append((method, batch))
            return real(spec, cluster, method, batch, calibration, settings)

        monkeypatch.setattr(
            "repro.search.service.executors.best_configuration", counting
        )
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, [CELLS[0], CELLS[1], CELLS[0]],
            options=SweepOptions(processes=1),
        )
        assert len(calls) == 2
        assert got == [outcomes[0], outcomes[1], outcomes[0]]

    def test_checkpoints_written_and_resume_skips_search(
        self, tmp_path, monkeypatch, outcomes
    ):
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path)
        first = run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        assert first == outcomes
        assert len(CheckpointStore(tmp_path)) == len(CELLS)

        def boom(*args, **kwargs):  # resume must not search anything
            raise AssertionError("searched a checkpointed cell")

        monkeypatch.setattr(
            "repro.search.service.executors.best_configuration", boom
        )
        resumed = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=replace(opts, resume=True),
        )
        assert resumed == first

    @pytest.mark.parametrize("observer", ["recording", "metrics_out"])
    def test_fully_resumed_sweep_records_its_counters(
        self, tmp_path, observer
    ):
        # Nothing is left to compute, yet the sweep still counts where
        # its cells came from, and writes its own snapshot when asked.
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path / "ck")
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        resumed = replace(opts, resume=True)
        if observer == "recording":
            registry = MetricsRegistry(actor="coordinator")
            with recording(registry):
                run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=resumed)
            counters = registry.snapshot()["counters"]
        else:
            metrics = tmp_path / "metrics"
            run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=replace(resumed, metrics_out=metrics),
            )
            [snapshot] = read_snapshots(metrics / "coordinator.jsonl")
            counters = snapshot["counters"]
        assert counters == {
            "sweep.cells_from_checkpoints": len(CELLS),
            "sweep.cells_total": len(CELLS),
        }

    def test_resume_recomputes_corrupted_cell(self, tmp_path, outcomes):
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path)
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        key = cell_key(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, CELLS[1]
        )
        CheckpointStore(tmp_path).path_for(key).write_bytes(b"{broken")
        with pytest.warns(RuntimeWarning):
            resumed = run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=replace(opts, resume=True),
            )
        assert resumed == outcomes

    # SweepOptions refuses what no sweep can run when it is built, even
    # if nothing would be left to compute.
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SweepOptions(backend="dask")

    def test_file_queue_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            SweepOptions(backend="file-queue")

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            SweepOptions(resume=True)

    @pytest.mark.parametrize("processes", [0, -3])
    def test_pool_of_fewer_than_one_process_rejected(self, processes):
        with pytest.raises(ValueError, match="processes"):
            SweepOptions(processes=processes)

    def test_empty_cells(self):
        assert run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, []) == []

    def test_options_calibration_reaches_the_search(self):
        """``SweepOptions.calibration`` (the --calibration plumbing) must
        reach the actual search: a huge fixed step overhead visibly
        drags every cell's throughput."""
        slow = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[:1],
            options=SweepOptions(
                processes=1,
                calibration=Calibration(fixed_step_overhead=1.0),
            ),
        )
        default = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[:1],
            options=SweepOptions(processes=1),
        )
        assert (
            slow[0].best.throughput_per_gpu
            < default[0].best.throughput_per_gpu
        )


class TestCellTiming:
    """Per-cell wall-clock sidecars and longest-cell-first scheduling."""

    def test_sweep_records_timing_sidecars(self, tmp_path):
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path)
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        store = CheckpointStore(tmp_path)
        for cell in CELLS:
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            seconds = store.load_timing(key)
            assert seconds is not None and seconds > 0

    def test_timing_sidecar_round_trip_and_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store_timing("abc123", 1.25)
        assert store.load_timing("abc123") == 1.25
        assert store.load_timing("missing") is None
        store.timing_path_for("bad999").write_bytes(b"{nope")
        assert store.load_timing("bad999") is None  # silently advisory
        with pytest.raises(ValueError):
            store.store_timing("abc123", -1.0)

    def test_timing_sidecar_with_retired_fields_still_loads(self, tmp_path):
        # Sidecars written by older versions may carry fields this one
        # no longer writes; the duration must still load.
        store = CheckpointStore(tmp_path)
        path = store.store_timing("abc123", 1.25)
        record = json.loads(path.read_bytes())
        record["retired_field"] = 0.9
        path.write_text(json.dumps(record))
        assert store.load_timing("abc123") == 1.25

    def test_timing_files_do_not_pollute_checkpoint_keys(
        self, tmp_path, outcomes
    ):
        store = CheckpointStore(tmp_path)
        store.store("deadbeef", outcomes[0])
        store.store_timing("deadbeef", 2.0)
        assert store.keys() == ["deadbeef"]

    def test_recorded_timings_schedule_longest_first(self, tmp_path):
        from repro.search.service.service import _order_longest_first

        store = CheckpointStore(tmp_path)
        tasks = [
            (0, "aaa", SweepCell(Method.NO_PIPELINE, 8)),
            (1, "bbb", SweepCell(Method.NO_PIPELINE, 64)),
            (2, "ccc", SweepCell(Method.DEPTH_FIRST, 16)),
        ]
        store.store_timing("aaa", 0.5)
        store.store_timing("ccc", 9.0)
        ordered, _estimates = _order_longest_first(store, tasks)
        # Recorded cells rank by their measured seconds; the unrecorded
        # B=64 cell is estimated from the steepest recorded rate
        # (9.0s / 16 samples), putting its ~36s ahead of both — a big
        # new cell must not be scheduled after small known ones.
        # Ordering is family-clustered: cells of one method stay
        # consecutive (they share pricing families), so the small
        # NO_PIPELINE cell rides with its giant sibling ahead of the
        # DEPTH_FIRST group.
        assert [key for _i, key, _c in ordered] == ["bbb", "aaa", "ccc"]

    def test_unknown_cells_order_by_batch_size(self, tmp_path):
        from repro.search.service.service import _order_longest_first

        store = CheckpointStore(tmp_path)
        tasks = [
            (0, "aaa", SweepCell(Method.NO_PIPELINE, 8)),
            (1, "bbb", SweepCell(Method.NO_PIPELINE, 64)),
        ]
        ordered, _estimates = _order_longest_first(store, tasks)
        assert [key for _i, key, _c in ordered] == ["bbb", "aaa"]

    def test_recorded_seconds_are_used_as_measured(self, tmp_path):
        from repro.search.service.service import _order_longest_first

        store = CheckpointStore(tmp_path)
        tasks = [
            (0, "aaa", SweepCell(Method.NO_PIPELINE, 16)),
            (1, "bbb", SweepCell(Method.NO_PIPELINE, 64)),
        ]
        # A recorded sidecar's seconds are the estimate verbatim; the
        # unrecorded cell is estimated from that cell's rate per sample.
        store.store_timing("aaa", 8.0)
        _o, estimates = _order_longest_first(store, tasks)
        assert estimates == {"aaa": 8.0, "bbb": 8.0 / 16 * 64}

    def test_scheduling_order_never_changes_results(self, tmp_path, outcomes):
        # Seed timings that force a non-input order, then sweep: results
        # must still come back in input order.
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        for cell, seconds in zip(CELLS, (1.0, 50.0, 10.0)):
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            store.store_timing(key, seconds)
        got = run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        assert got == outcomes


def _only_start_method(monkeypatch, method):
    """Make the platform probe report ``method`` alone.

    Returns the list of start methods the pools then ask for.
    """
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} unavailable on this platform")
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: [method]
    )
    used = []
    real = multiprocessing.get_context

    def spy(name=None):
        used.append(name)
        return real(name)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return used


class TestBackendParity:
    """Every backend must reproduce the serial outcomes exactly."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_matches_serial(self, monkeypatch, outcomes, start_method):
        # Spawn-only platforms get a real pool: the initializer rebuilds
        # the search context in each child instead of a silent serial
        # fallback.
        used = _only_start_method(monkeypatch, start_method)
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(processes=2),
        )
        assert got == outcomes
        assert used == [start_method]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_metrics_match_serial(self, monkeypatch, start_method):
        # A recording coordinator gets every pool worker's per-cell
        # metrics back: the merged search counters and histograms equal
        # a serial run's, so --metrics-out reports the same candidate
        # totals on every backend.
        used = _only_start_method(monkeypatch, start_method)

        def recorded(processes):
            with recording(MetricsRegistry()) as registry:
                run_sweep(
                    MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                    options=SweepOptions(processes=processes),
                )
            snapshot = registry.snapshot()
            counters = {
                name: value
                for name, value in snapshot["counters"].items()
                if name.startswith(("search.candidates.", "search.cells"))
            }
            counts = {
                name: snapshot["histograms"][name]["count"]
                for name in (
                    "search.stage.simulate.seconds",
                    "search.bound.tightness.DEPTH_FIRST",
                )
            }
            return counters, counts

        serial = recorded(1)
        pool = recorded(2)
        assert used == [start_method]
        assert serial[0]["search.cells"] == len(CELLS)
        assert pool == serial

    #: What ``run_sweep`` hands a backend: the search context and
    #: ``(index, key, cell)`` tasks.
    POOL_CONTEXT = (
        MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, SearchSettings()
    )
    POOL_TASKS = [(index, f"k{index}", cell) for index, cell in enumerate(CELLS)]

    def test_pool_reports_carry_no_metrics_when_not_recording(self):
        executor = MultiprocessingExecutor(processes=2)
        reports = [
            report
            for _index, _outcome, report in executor.run(
                self.POOL_CONTEXT, self.POOL_TASKS
            )
        ]
        assert len(reports) == len(CELLS)
        assert all(report.metrics is None for report in reports)

    def test_pool_reports_carry_their_own_cells_metrics(self):
        # Each report holds one cell's snapshot, recorded in the worker;
        # folding it into the coordinator is run_sweep's job, so running
        # the backend alone leaves the coordinator's registry empty.
        executor = MultiprocessingExecutor(processes=2)
        with recording(MetricsRegistry()) as registry:
            results = list(executor.run(self.POOL_CONTEXT, self.POOL_TASKS))
        assert registry.counters == {}
        assert sorted(index for index, _outcome, _report in results) == [0, 1, 2]
        for _index, outcome, report in results:
            counters = report.metrics["counters"]
            assert counters["search.cells"] == 1
            assert counters["search.candidates.simulated"] == outcome.n_tried
            assert counters["search.candidates.excluded"] == outcome.n_excluded


class TestTieBreak:
    def test_equal_throughput_prefers_smaller_config(self, monkeypatch):
        seen = []

        def flat_simulate(
            spec, config, cluster, implementation=None, calibration=None,
            schedule=None, record_events=False, memory=None, cost=None,
        ):
            seen.append(config)
            return SimulationResult(
                config=config,
                implementation_name=implementation.name,
                step_time=1.0,
                throughput_per_gpu=1.0,  # every candidate ties
                utilization=0.5,
                compute_busy=1.0,
                pp_comm_busy=0.0,
                dp_comm_busy=0.0,
                bubble_fraction=0.0,
                memory=memory,
                timeline=(),
            )

        def flat_simulate_delta(cost, schedule, memory, *, base):
            result = flat_simulate(
                cost.spec, cost.config, cost.cluster,
                implementation=cost.implementation,
                calibration=cost.calibration, schedule=schedule,
                memory=memory, cost=cost,
            )
            return result, None, False

        monkeypatch.setattr(grid_module, "simulate", flat_simulate)
        monkeypatch.setattr(grid_module, "simulate_delta", flat_simulate_delta)
        outcome = grid_module.best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 64
        )
        assert len(seen) == outcome.n_tried > 1
        assert outcome.best.config.sort_key == min(c.sort_key for c in seen)

    def test_sort_key_orders_all_fields(self):
        from repro.parallel.config import ParallelConfig

        small = ParallelConfig(
            n_dp=1, n_pp=2, n_tp=1, microbatch_size=1, n_microbatches=4
        )
        bigger = ParallelConfig(
            n_dp=1, n_pp=2, n_tp=2, microbatch_size=1, n_microbatches=4
        )
        assert small.sort_key < bigger.sort_key


class TestProgressReporter:
    def test_renders_counts_and_eta(self):
        clock = iter([0.0, 10.0, 10.0, 20.0, 20.0]).__next__
        reporter = ProgressReporter(4, label="t", stream=None, clock=clock)
        reporter.update(2)
        line = reporter.render(10.0)
        assert "2/4" in line and "ETA" in line
        reporter.update(2)
        assert "done" in reporter.render(20.0)

    def test_skipped_cells_reported(self):
        reporter = ProgressReporter(2, clock=lambda: 0.0)
        reporter.skip(2)
        assert "2 from checkpoints" in reporter.render(0.0)

    def test_cost_weighted_eta_with_skewed_cells(self):
        # One giant cell (estimated 100s) plus three tiny ones (1s each),
        # scheduled longest-first.  After the giant finishes in 100s of
        # wall time, the naive completed-cell rate prices the remaining
        # three tiny cells at 300s; the cost-weighted ETA knows only the
        # ~3 estimated seconds remain.
        reporter = ProgressReporter(4, clock=lambda: 0.0)
        reporter.expect([100.0, 1.0, 1.0, 1.0])
        reporter.update(cost=100.0)
        eta = reporter.eta_seconds(100.0)
        assert eta == pytest.approx(3.0)
        naive_eta = (4 - 1) / (1 / 100.0)
        assert eta < naive_eta / 50

    def test_eta_tracks_observed_slowdown(self):
        # Actual time running 2x over the estimates scales the ETA 2x.
        reporter = ProgressReporter(2, clock=lambda: 0.0)
        reporter.expect([10.0, 10.0])
        reporter.update(cost=10.0)
        assert reporter.eta_seconds(20.0) == pytest.approx(20.0)

    def test_eta_falls_back_to_rate_without_costs(self):
        reporter = ProgressReporter(4, clock=lambda: 0.0)
        reporter.update(2)
        assert reporter.eta_seconds(10.0) == pytest.approx(10.0)
        empty = ProgressReporter(4, clock=lambda: 0.0)
        assert empty.eta_seconds(10.0) is None
