"""Tests for the sweep service: serialization, checkpoints, the pool."""

from __future__ import annotations

import concurrent.futures
import errno
import functools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.models.presets import MODEL_6_6B
from repro.obs import MetricsRegistry, recording
from repro.parallel.config import Method
from repro.search import grid as grid_module
from repro.search.cell import SearchSettings
from repro.search.grid import SearchOutcome, best_configuration
from repro.search.service import (
    MAX_RETRIES,
    CheckpointStore,
    MemoStore,
    SweepCell,
    SweepError,
    SweepOptions,
    cell_key,
    outcome_from_json,
    outcome_to_json,
    run_cells,
    run_sweep,
)
from repro.search.service import executors as executors_mod
from repro.search.service import service as service_mod
from repro.search.service.progress import ProgressReporter
from repro.search.service.service import _schedule
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


#: What ``run_sweep`` hands the executor: the search context and
#: ``(index, key, cell)`` tasks.
POOL_CONTEXT = (
    MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, SearchSettings()
)
POOL_TASKS = [(index, f"k{index}", cell) for index, cell in enumerate(CELLS)]


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
    return lambda n: store.store_timing(
        "k", float(n), worker="w", started_at=10.0
    )


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
        [_checkpoint_writer, _timing_writer, _manifest_writer],
        ids=["checkpoint", "timing", "manifest"],
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

    def test_fully_resumed_sweep_records_its_counters(self, tmp_path):
        # Nothing is left to compute, yet the sweep still counts where
        # its cells came from.
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path / "ck")
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        registry = MetricsRegistry(actor="coordinator")
        with recording(registry):
            run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=replace(opts, resume=True),
            )
        counters = registry.snapshot()["counters"]
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
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            SweepOptions(resume=True)

    @pytest.mark.parametrize(
        "retired", [{"backend": "file-queue"}, {"queue_dir": "q"}],
        ids=["backend", "queue_dir"],
    )
    def test_retired_backend_options_are_refused(self, retired):
        # The pool is the one backend: asking for another one, or for
        # its queue, fails when the options are built.
        with pytest.raises(TypeError, match=next(iter(retired))):
            SweepOptions(**retired)

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
    """Per-cell wall-clock sidecars, which ``sweep-trace`` reads."""

    def test_sweep_records_timing_sidecars(self, tmp_path):
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path)
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        store = CheckpointStore(tmp_path)
        for cell in CELLS:
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            assert store.load_timing_record(key)["seconds"] > 0

    def test_timing_sidecar_round_trip_and_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store_timing("abc123", 1.25, worker="w", started_at=10.0)
        assert store.load_timing_record("abc123")["seconds"] == 1.25
        assert store.load_timing_record("missing") is None
        store.timing_path_for("bad999").write_bytes(b"{nope")
        assert store.load_timing_record("bad999") is None  # silently advisory
        with pytest.raises(ValueError):
            store.store_timing("abc123", -1.0, worker="w", started_at=10.0)

    def test_timing_sidecar_with_retired_fields_still_loads(self, tmp_path):
        # Sidecars written by older versions may carry fields this one
        # no longer writes; the duration must still load.
        store = CheckpointStore(tmp_path)
        path = store.store_timing("abc123", 1.25, worker="w", started_at=10.0)
        record = json.loads(path.read_bytes())
        record["retired_field"] = 0.9
        path.write_text(json.dumps(record))
        assert store.load_timing_record("abc123")["seconds"] == 1.25

    def test_non_object_sidecar_does_not_stop_a_resume(
        self, tmp_path, outcomes
    ):
        # A sidecar holding a JSON list is ignored like any unreadable
        # one, and rewritten when its cell is searched again.
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path)
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        store = CheckpointStore(tmp_path)
        key = cell_key(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, CELLS[1]
        )
        store.path_for(key).unlink()
        store.timing_path_for(key).write_bytes(b"[1, 2]")
        resumed = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=replace(opts, resume=True),
        )
        assert resumed == outcomes
        assert store.load_timing_record(key)["seconds"] > 0

    def test_timing_files_do_not_pollute_checkpoint_keys(
        self, tmp_path, outcomes
    ):
        store = CheckpointStore(tmp_path)
        store.store("deadbeef", outcomes[0])
        store.store_timing("deadbeef", 2.0, worker="w", started_at=10.0)
        assert store.keys() == ["deadbeef"]


def _task(key, method, batch_size):
    return (0, key, SweepCell(method, batch_size))


class TestSchedule:
    """The order a sweep searches its cells in, from the cells alone."""

    def test_methods_by_largest_batch_then_cells_by_batch(self):
        # As in a partly resumed sweep, the methods' largest batch
        # sizes differ: depth-first (64) runs before no-pipeline (32),
        # and breadth-first and non-looped tie at 16 and go by name.
        # Equal cells go by key.
        tasks = [
            _task("a", Method.NO_PIPELINE, 8),
            _task("b", Method.BREADTH_FIRST, 16),
            _task("c", Method.DEPTH_FIRST, 8),
            _task("d", Method.NO_PIPELINE, 32),
            _task("e", Method.NON_LOOPED, 16),
            _task("f", Method.DEPTH_FIRST, 64),
            _task("h", Method.BREADTH_FIRST, 4),
            _task("g", Method.BREADTH_FIRST, 4),
        ]
        assert [key for _i, key, _c in _schedule(tasks)] == [
            "f", "c", "d", "a", "b", "g", "h", "e",
        ]

    def test_sidecars_do_not_change_the_order(self, tmp_path, monkeypatch):
        # Timings recorded by an earlier run over the directory, which
        # rank the cells against their batch sizes, leave the order as
        # the cells give it.
        scheduled = []

        def record(context, tasks, *, processes):
            scheduled.append([index for index, _key, _cell in tasks])
            return executors_mod.run_cells(context, tasks, processes=processes)

        monkeypatch.setattr(service_mod, "run_cells", record)
        store = CheckpointStore(tmp_path)
        for cell, seconds in zip(CELLS, (50.0, 1.0, 90.0)):
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            store.store_timing(key, seconds, worker="w", started_at=10.0)
        opts = SweepOptions(processes=1, checkpoint_dir=tmp_path)
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        assert scheduled == [[1, 0, 2]]

    def test_scheduling_order_never_changes_results(self, outcomes):
        # The schedule (B=64, B=8, then depth-first) is not the input
        # order, yet results come back in input order.
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(processes=1),
        )
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
    """The pool must reproduce the serial outcomes exactly."""

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
        # totals at every --jobs.
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

    @pytest.mark.parametrize(
        "processes, sizes",
        [(1, []), (3, [3]), (5, [3]), (None, [2])],
        ids=["1-in-process", "3", "5-capped-at-cells", "None-cpu-count"],
    )
    def test_pool_size_follows_processes(self, monkeypatch, processes, sizes):
        # ``processes`` workers, capped at the cells; None means one per
        # CPU (two here); one searches in the calling process.
        started = []

        class SizedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SizedPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        results = list(run_cells(POOL_CONTEXT, POOL_TASKS, processes=processes))
        assert sorted(index for index, _outcome, _report in results) == [0, 1, 2]
        assert started == sizes

    def test_pool_reports_carry_no_metrics_when_not_recording(self):
        reports = [
            report
            for _index, _outcome, report in run_cells(
                POOL_CONTEXT, POOL_TASKS, processes=2
            )
        ]
        assert len(reports) == len(CELLS)
        assert all(report.metrics is None for report in reports)

    def test_pool_reports_carry_their_own_cells_metrics(self):
        # Each report holds one cell's snapshot, recorded in the worker;
        # folding it into the coordinator is run_sweep's job, so running
        # the executor alone leaves the coordinator's registry empty.
        with recording(MetricsRegistry()) as registry:
            results = list(run_cells(POOL_CONTEXT, POOL_TASKS, processes=2))
        assert registry.counters == {}
        assert sorted(index for index, _outcome, _report in results) == [0, 1, 2]
        for _index, outcome, report in results:
            counters = report.metrics["counters"]
            assert counters["search.cells"] == 1
            assert counters["search.candidates.simulated"] == outcome.n_tried
            assert counters["search.candidates.excluded"] == outcome.n_excluded

    @pytest.mark.parametrize("processes", [1, 2], ids=["in-process", "pool"])
    def test_reports_name_the_searching_process(self, processes):
        # A pool worker signs its cells pool-<pid>, the actor its metrics
        # carry; an in-process search signs them coordinator.  Both
        # stamp the search's start on the wall clock: with the name, it
        # places the cell on a lane of the sweep trace.
        before = time.time()
        results = list(
            run_cells(POOL_CONTEXT, POOL_TASKS, processes=processes)
        )
        after = time.time()
        workers = {report.worker for _index, _outcome, report in results}
        if processes == 1:
            assert workers == {"coordinator"}
        else:
            assert all(
                worker.startswith("pool-")
                and int(worker[len("pool-"):]) != os.getpid()
                for worker in workers
            )
        assert all(
            before <= report.started_at <= after
            for _index, _outcome, report in results
        )

    def test_pool_checkpoints_match_serial_bytes(self, tmp_path, outcomes):
        run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(processes=2, checkpoint_dir=tmp_path),
        )
        store = CheckpointStore(tmp_path)
        for cell, outcome in zip(CELLS, outcomes):
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            assert store.path_for(key).read_bytes() == store.payload_bytes(
                key, outcome
            )

    def test_pool_resume_searches_only_the_missing_cells(
        self, tmp_path, outcomes
    ):
        opts = SweepOptions(processes=2, checkpoint_dir=tmp_path)
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        store = CheckpointStore(tmp_path)
        for cell in CELLS[1:]:  # two cells left: still a pool of two
            store.path_for(
                cell_key(MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell)
            ).unlink()
        with recording(MetricsRegistry()) as registry:
            resumed = run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=replace(opts, resume=True),
            )
        assert resumed == outcomes
        counters = registry.snapshot()["counters"]
        assert counters["sweep.cells_from_checkpoints"] == 1
        assert counters["sweep.cells_computed"] == 2
        assert counters["search.cells"] == 2


_REAL_WAIT = concurrent.futures.wait


class _ScriptedPool:
    """In-process stand-in for ``concurrent.futures.ProcessPoolExecutor``.

    Built by the executor through :class:`PoolScript`.  Cells run in the
    calling process when the executor waits, with the worker context set
    as ``_init_worker`` sets it (minus its reset of the recorder).  A
    worker's death breaks the pool the way a real one breaks: every cell
    in flight fails with ``BrokenProcessPool``, and so does every later
    ``submit``.
    """

    def __init__(self, script, max_workers, *, mp_context, initializer,
                 initargs):
        self.script = script
        self.number = len(script.pools)
        self.max_workers = max_workers
        self.start_method = mp_context.get_start_method()
        self.initializer = initializer
        self.initargs = initargs
        self.in_flight = []
        self.n_submits = 0
        self.broken = False
        self.shutdowns = []
        script.pools.append(self)
        executors_mod._WORKER_CONTEXT.update(
            args=initargs[:4], record=initargs[4]
        )

    def submit(self, fn, task):
        if (self.number, self.n_submits) in self.script.refusals:
            self.broken = True  # a worker died while idle
        self.n_submits += 1
        if self.broken:
            raise BrokenProcessPool("a worker died while idle")
        index, _cell = task
        dies = self.script.kills(index, self.script.handed_out[index])
        self.script.handed_out[index] += 1
        self.script.submitted.append((self.number, index))
        future = concurrent.futures.Future()
        self.in_flight.append((future, fn, task, dies))
        self.script.peak = max(self.script.peak, len(self.in_flight))
        return future

    def settle(self):
        batch, self.in_flight = self.in_flight, []
        if any(dies for *_rest, dies in batch):
            self.broken = True
        for future, fn, task, _dies in batch:
            if self.broken:
                future.set_exception(BrokenProcessPool("a worker died"))
            else:
                future.set_result(fn(task))

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


class PoolScript:
    """Installs :class:`_ScriptedPool` as the executor's pool.

    ``kills(index, n)`` says whether the worker that takes task
    ``index`` for the ``n``-th time (from 0) dies.  ``refusals`` holds
    ``(pool number, submission number)`` pairs at which ``submit`` finds
    its pool already broken.
    """

    def __init__(self, monkeypatch, *, kills=lambda index, n: False,
                 refusals=()):
        self.kills = kills
        self.refusals = set(refusals)
        self.pools = []
        #: ``(pool number, task index)`` per accepted submission.
        self.submitted = []
        self.handed_out = Counter()
        self.peak = 0

        def wait(futures, timeout=None, return_when=concurrent.futures.ALL_COMPLETED):
            self.pools[-1].settle()
            return _REAL_WAIT(futures, timeout=0, return_when=return_when)

        monkeypatch.setattr(executors_mod, "_WORKER_CONTEXT", {})
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor",
            functools.partial(_ScriptedPool, self),
        )
        monkeypatch.setattr(concurrent.futures, "wait", wait)


def _by_index(results):
    got = {index: outcome for index, outcome, _report in results}
    return [got[index] for index in sorted(got)]


class TestPoolRetry:
    """The pool's retry bookkeeping, on a scripted in-process pool: what
    a broken pool charges, where its cells go next, when the sweep gives
    up, and that every pool is shut down."""

    @staticmethod
    def start(monkeypatch, **script):
        script = PoolScript(monkeypatch, **script)
        results = run_cells(POOL_CONTEXT, POOL_TASKS, processes=2)
        return script, results

    def test_lost_cells_rerun_alone_in_a_fresh_pool(
        self, monkeypatch, outcomes
    ):
        script, results = self.start(
            monkeypatch, kills=lambda index, n: index == 1 and n == 0
        )
        assert _by_index(results) == outcomes
        # Both cells in flight were lost.  They rerun one at a time in a
        # one-worker pool, in their scheduled order, ahead of the cell
        # never submitted.
        assert script.submitted == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
        assert [pool.max_workers for pool in script.pools] == [2, 1, 2]

    def test_every_fresh_pool_is_built_like_the_first(self, monkeypatch):
        script, results = self.start(monkeypatch, kills=lambda index, n: n == 0)
        assert len(list(results)) == len(CELLS)
        start_method = (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        # Cells 0 and 1 are lost together and rerun alone; cell 2 is
        # lost alone in the next full pool and reruns alone.
        assert [pool.max_workers for pool in script.pools] == [2, 1, 2, 1]
        for pool in script.pools:
            assert pool.start_method == start_method
            assert pool.initializer is executors_mod._init_worker
            assert pool.initargs == (*POOL_CONTEXT, False, os.getpid())

    def test_a_cell_lost_alone_max_retries_times_still_completes(
        self, monkeypatch, outcomes
    ):
        # Cell 1 is lost once beside cell 0, uncharged, then alone
        # MAX_RETRIES times.
        script, results = self.start(
            monkeypatch, kills=lambda index, n: index == 1 and n <= MAX_RETRIES
        )
        assert _by_index(results) == outcomes
        assert script.handed_out[1] == MAX_RETRIES + 2

    def test_only_the_cell_lost_alone_is_named(self, monkeypatch):
        # Cell 1 kills every worker that takes it.  Cell 0 is in flight
        # beside it once, is not charged, and completes when it reruns
        # alone; cell 2, submitted after them, completes too.  Both come
        # back before the error, which names cell 1 alone.
        script, results = self.start(
            monkeypatch, kills=lambda index, n: index == 1
        )
        yielded = []
        with pytest.raises(SweepError) as raised:
            for index, _outcome, _report in results:
                yielded.append(index)
        assert yielded == [0, 2]
        message = str(raised.value)
        assert message.startswith("1 cell(s) lost their worker alone")
        _index, key, cell = POOL_TASKS[1]
        assert f"{key} ({cell.method.value} B={cell.batch_size})" in message
        assert "k0" not in message and "k2" not in message
        assert script.handed_out == {0: 2, 1: MAX_RETRIES + 2, 2: 1}

    def test_a_cell_refused_at_submit_is_not_charged(
        self, monkeypatch, outcomes
    ):
        # Cells 0 and 1 finish, then a worker dies idle and the pool
        # refuses cell 2, which never started.  With no retries allowed,
        # one charge would fail the sweep.
        monkeypatch.setattr(executors_mod, "MAX_RETRIES", 0)
        script, results = self.start(monkeypatch, refusals={(0, 2)})
        assert _by_index(results) == outcomes
        assert script.submitted == [(0, 0), (0, 1), (1, 2)]

    def test_at_most_one_cell_per_worker_in_flight(self, monkeypatch):
        script, results = self.start(
            monkeypatch, kills=lambda index, n: index == 2 and n == 0
        )
        assert len(list(results)) == len(CELLS)
        assert script.peak == 2

    @pytest.mark.parametrize("ending", ["finished", "failed", "closed-early"])
    def test_every_pool_is_shut_down(self, monkeypatch, ending):
        script, results = self.start(
            monkeypatch,
            kills=lambda index, n: index == 1 and (ending == "failed" or n == 0),
        )
        if ending == "finished":
            assert len(list(results)) == len(CELLS)
        elif ending == "failed":
            with pytest.raises(SweepError):
                list(results)
        else:
            next(results)
            results.close()
        assert len(script.pools) > 1
        assert all(pool.shutdowns == [True] for pool in script.pools)

    def test_a_cell_beside_a_killer_is_checkpointed(
        self, monkeypatch, tmp_path, outcomes
    ):
        # run_sweep schedules the B=64 cell (input index 1), which kills
        # every worker, and the healthy B=8 cell in one round.  The B=8
        # cell is not charged for that loss: it lands and is
        # checkpointed with the depth-first cell, the error names the
        # killer alone, and a resume searches only the killer.
        PoolScript(monkeypatch, kills=lambda index, n: index == 1)
        opts = SweepOptions(processes=2, checkpoint_dir=tmp_path)
        with pytest.raises(SweepError) as raised:
            run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        keys = [
            cell_key(MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell)
            for cell in CELLS
        ]
        message = str(raised.value)
        assert message.startswith("1 cell(s) lost their worker")
        assert keys[1] in message and keys[0] not in message
        store = CheckpointStore(tmp_path)
        assert store.keys() == sorted([keys[0], keys[2]])
        assert store.path_for(keys[0]).read_bytes() == store.payload_bytes(
            keys[0], outcomes[0]
        )
        PoolScript(monkeypatch)
        with recording(MetricsRegistry()) as registry:
            run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=replace(opts, resume=True),
            )
        counters = registry.snapshot()["counters"]
        assert counters["sweep.cells_from_checkpoints"] == 2
        assert counters["sweep.cells_computed"] == 1


#: One faulted pool sweep over ``CELLS``, run by :func:`_run_faulted` in
#: a child interpreter.  A patched ``_timed_search`` SIGKILLs the pool
#: worker that takes ``CELLS[1]``: every time (``kill-every-time``), or
#: the first time only (``kill-once``: an ``O_EXCL`` marker file admits
#: one kill).  Each kill appends a line to ``kills.log`` first.  The child
#: prints what it saw as one JSON line, including how many pool workers
#: were still alive after each run.
_FAULT_CHILD = """
import json, multiprocessing, os, signal, sys
from dataclasses import replace

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.obs import MetricsRegistry, recording
from repro.parallel.config import Method
from repro.search.service import (
    DEFAULT_SETTINGS, SweepCell, SweepError, SweepOptions, outcome_to_json,
    run_cells, run_sweep,
)
from repro.search.service import executors
from repro.sim.calibration import DEFAULT_CALIBRATION

scenario, root = sys.argv[1], sys.argv[2]
cells = [
    SweepCell(Method.NO_PIPELINE, 8),
    SweepCell(Method.NO_PIPELINE, 64),
    SweepCell(Method.DEPTH_FIRST, 8),
]
search = executors._timed_search


def first_kill():
    try:
        marker = os.open(
            os.path.join(root, "killed"), os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return False
    os.close(marker)
    return True


def killing_search(context, cell):
    if cell == cells[1] and (scenario == "kill-every-time" or first_kill()):
        with open(os.path.join(root, "kills.log"), "a") as log:
            log.write("kill\\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return search(context, cell)


executors._timed_search = killing_search
report = {"children": []}
options = SweepOptions(processes=2, checkpoint_dir=os.path.join(root, "ck"))
if scenario == "kill-once":
    with recording(MetricsRegistry()) as registry:
        outcomes = run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, cells, options=options)
    report["children"].append(len(multiprocessing.active_children()))
    report["outcomes"] = [outcome_to_json(outcome) for outcome in outcomes]
    report["counters"] = registry.snapshot()["counters"]
    with recording(MetricsRegistry()) as registry:
        resumed = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, cells,
            options=replace(options, resume=True),
        )
    report["children"].append(len(multiprocessing.active_children()))
    report["resumed_counters"] = registry.snapshot()["counters"]
    report["resumed_equal"] = resumed == outcomes
elif scenario == "kill-every-time":
    try:
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, cells, options=options)
    except SweepError as exc:
        report["error"] = str(exc)
    report["children"].append(len(multiprocessing.active_children()))
elif scenario == "close-early":
    executors._timed_search = search
    context = (MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, DEFAULT_SETTINGS)
    tasks = [(index, f"k{index}", cell) for index, cell in enumerate(cells)]
    results = run_cells(context, tasks, processes=2)
    next(results)
    results.close()
    report["children"].append(len(multiprocessing.active_children()))
try:
    with open(os.path.join(root, "kills.log")) as log:
        report["kills"] = len(log.readlines())
except FileNotFoundError:
    report["kills"] = 0
print(json.dumps(report))
"""

#: A pool sweep over ``CELLS`` whose coordinator is SIGKILLed, run by
#: ``_KILL_LAUNCHER``.  Pool workers search the first ``stop_after``
#: cells handed to them (an ``O_EXCL`` ticket file admits each) and
#: wait forever in every later one, after creating a ``waiting-<pid>``
#: file.
_KILLED_COORDINATOR = """
import os, sys, threading

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import Method
from repro.search.service import SweepCell, SweepOptions, run_sweep
from repro.search.service import executors

root, stop_after = sys.argv[1], int(sys.argv[2])
cells = [
    SweepCell(Method.NO_PIPELINE, 8),
    SweepCell(Method.NO_PIPELINE, 64),
    SweepCell(Method.DEPTH_FIRST, 8),
]
search = executors._timed_search


def search_or_wait(context, cell):
    for ticket in range(stop_after):
        try:
            marker = os.open(
                os.path.join(root, f"ticket-{ticket}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        os.close(marker)
        return search(context, cell)
    open(os.path.join(root, f"waiting-{os.getpid()}"), "w").close()
    threading.Event().wait()


executors._timed_search = search_or_wait
options = SweepOptions(processes=2, checkpoint_dir=os.path.join(root, "ck"))
run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, cells, options=options)
"""

#: Starts ``_KILLED_COORDINATOR``, SIGKILLs it once ``stop_after`` cells
#: have their timing sidecars (the last file ``run_sweep`` writes for a
#: cell) and a worker waits, then reaps every process left.  As a child
#: subreaper it inherits the coordinator's orphans, so ``os.wait`` blocks
#: until each has exited; it prints how many processes it reaped.
_KILL_LAUNCHER = """
import ctypes, json, os, signal, subprocess, sys, time

PR_SET_CHILD_SUBREAPER = 36
if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0):
    sys.exit(f"prctl: errno {ctypes.get_errno()}")
root, stop_after = sys.argv[1], int(sys.argv[2])
coordinator = subprocess.Popen(
    [sys.executable, "-c", sys.argv[3], root, str(stop_after)]
)
checkpoints = os.path.join(root, "ck")


def ready():
    names = os.listdir(checkpoints) if os.path.isdir(checkpoints) else []
    timed = sum(name.endswith(".time.json") for name in names)
    waiting = any(name.startswith("waiting-") for name in os.listdir(root))
    return timed == stop_after and waiting


while not ready():
    if coordinator.poll() is not None:
        sys.exit(f"the coordinator exited early: {coordinator.returncode}")
    time.sleep(0.01)
os.kill(coordinator.pid, signal.SIGKILL)
reaped = 0
while True:
    try:
        os.wait()
    except ChildProcessError:
        break
    reaped += 1
print(json.dumps({"reaped": reaped}))
"""

#: Cells the killed coordinator checkpoints before it is killed.
_CHECKPOINTED = 2

#: Detects a hung sweep, and is no speed gate: each faulted sweep takes
#: a second or two.
_FAULT_TIMEOUT = 120

_REPO = Path(__file__).resolve().parent.parent


def _run_in_session(argv, what):
    """Run ``python argv`` in its own session; return its stdout.

    Fails if the child is still running after ``_FAULT_TIMEOUT`` seconds
    (the whole session is killed), if any process of its session
    outlives it, or if it exits non-zero.
    """
    env = dict(os.environ)
    src = str(_REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src]
    )
    child = subprocess.Popen(
        [sys.executable, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=_FAULT_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"{what}: still running after {_FAULT_TIMEOUT} s")
    try:
        os.killpg(child.pid, 0)
    except ProcessLookupError:
        pass
    else:
        os.killpg(child.pid, signal.SIGKILL)
        pytest.fail(f"{what}: a process outlived the sweep's interpreter")
    assert child.returncode == 0, err
    return out


def _run_faulted(scenario, root):
    """Run one ``_FAULT_CHILD`` scenario; return the child's report."""
    out = _run_in_session(["-c", _FAULT_CHILD, scenario, str(root)], scenario)
    return json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def serial_candidate_counters():
    with recording(MetricsRegistry()) as registry:
        run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(processes=1),
        )
    return {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("search.candidates.")
    }


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the injected fault reaches pool workers through fork",
)
class TestPoolFaults:
    """The pool recovers a dead worker's cells, and no worker outlives
    the run.  Each sweep runs in a child interpreter (_run_faulted)."""

    def test_killed_worker_cell_is_resubmitted(
        self, tmp_path, outcomes, serial_candidate_counters
    ):
        report = _run_faulted("kill-once", tmp_path)
        assert report["kills"] == 1
        assert [outcome_from_json(o) for o in report["outcomes"]] == outcomes
        store = CheckpointStore(tmp_path / "ck")
        for cell, outcome in zip(CELLS, outcomes):
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            assert store.path_for(key).read_bytes() == store.payload_bytes(
                key, outcome
            )
        # Only completed cells ship metrics: the killed attempt adds none.
        counters = report["counters"]
        assert {
            name: value
            for name, value in counters.items()
            if name.startswith("search.candidates.")
        } == serial_candidate_counters
        assert counters["sweep.cells_computed"] == len(CELLS)
        # A resume computes nothing.
        assert report["resumed_counters"] == {
            "sweep.cells_from_checkpoints": len(CELLS),
            "sweep.cells_total": len(CELLS),
        }
        assert report["resumed_equal"]
        assert report["children"] == [0, 0]

    def test_cell_that_kills_every_worker_fails_the_sweep(self, tmp_path):
        report = _run_faulted("kill-every-time", tmp_path)
        killer, neighbour = (
            cell_key(MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell)
            for cell in (CELLS[1], CELLS[0])
        )
        assert report["error"].startswith("1 cell(s) lost their worker")
        assert killer in report["error"]
        assert neighbour not in report["error"]
        # MAX_RETRIES + 1 losses alone, after one loss beside the B=8
        # cell when that cell was in flight with it.
        assert report["kills"] in (MAX_RETRIES + 1, MAX_RETRIES + 2)
        assert report["children"] == [0]

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="the launcher reaps the orphaned workers as a subreaper",
    )
    def test_killed_coordinator_leaves_no_worker_and_resumes(
        self, tmp_path, outcomes
    ):
        # The launcher SIGKILLs the coordinator alone once two cells are
        # checkpointed and a worker waits in its third; the orphaned
        # workers must exit by themselves.
        out = _run_in_session(
            [
                "-c", _KILL_LAUNCHER, str(tmp_path), str(_CHECKPOINTED),
                _KILLED_COORDINATOR,
            ],
            "coordinator kill",
        )
        # The coordinator and both of its workers.
        assert json.loads(out.splitlines()[-1]) == {"reaped": 3}
        checkpoint_dir = tmp_path / "ck"
        assert len(CheckpointStore(checkpoint_dir)) == _CHECKPOINTED
        with recording(MetricsRegistry()) as registry:
            resumed = run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=SweepOptions(
                    processes=2, checkpoint_dir=checkpoint_dir, resume=True
                ),
            )
        assert resumed == outcomes
        store = CheckpointStore(checkpoint_dir)
        for cell, outcome in zip(CELLS, outcomes):
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            assert store.path_for(key).read_bytes() == store.payload_bytes(
                key, outcome
            )
        counters = registry.snapshot()["counters"]
        assert counters["sweep.cells_from_checkpoints"] == _CHECKPOINTED
        assert counters["sweep.cells_computed"] == len(CELLS) - _CHECKPOINTED

    def test_closing_the_run_early_leaves_no_worker(self, tmp_path):
        report = _run_faulted("close-early", tmp_path)
        assert report["children"] == [0]

    def test_sweep_service_demo_passes(self):
        # The demo kills one of its own pool workers mid-cell, resumes,
        # and compares checkpoint bytes with a serial run.
        out = _run_in_session(
            [str(_REPO / "examples" / "sweep_service_demo.py")], "demo"
        )
        assert "sweep service smoke test passed" in out


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

    def test_eta_counts_cells(self):
        reporter = ProgressReporter(4, clock=lambda: 0.0)
        reporter.update(2)
        assert reporter.eta_seconds(10.0) == pytest.approx(10.0)
        empty = ProgressReporter(4, clock=lambda: 0.0)
        assert empty.eta_seconds(10.0) is None

    @pytest.mark.parametrize("processes", [1, 2], ids=["serial", "pool"])
    def test_a_sweep_reports_progress_on_stderr(self, capsys, processes):
        run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(processes=processes, progress=True),
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        # The first cell prints at once, with its rate and an ETA; the
        # last prints however soon it lands.
        assert lines[0].startswith("[sweep] 1/3 cells (33%) | ")
        assert " cells/s | ETA " in lines[0]
        assert lines[-1].startswith("[sweep] 3/3 cells (100%) — done in ")
