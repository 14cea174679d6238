"""Work-count gates: the pipeline's six wins, counted, not timed.

Each gate pins the deterministic count that carries one win, as an upper
bound at the value measured when the gate landed, so a later improvement
still passes and the machine's load can never fail it:

1. **Feasibility filter before simulation** (52B depth-first, B=64,
   pruning off): the memory filter excludes 100 of the 135 enumerated
   candidates before any program is built, and the 35 survivors' families
   are vector-priced up front, so the bound and the program builds never
   miss the stage-time table (scalar pricing misses it 35 times here).
2. **Branch-and-bound** (6.6B non-looped, B=512): the bound prunes all
   but one of the 206 feasible candidates, and the winner's serialized
   bytes equal the pruning-off search's.
3. **Batched grid** (the 7 non-looped Figure 7 cells of both models,
   one cold start): at most 9 simulations in total, where the pipeline
   before the drain-side bound certificate and the closed-form memory
   filter simulated 204 and built a schedule per enumerated candidate.
4. **Disabled observability** (52B non-looped, B=8 and B=64, pruning
   off): with a recorder installed whose ``enabled`` is False, a cell
   opens its 4 spans, records nothing, and reads the flag
   once per cell or engine run, never per candidate.
5. **Collector paused** (the 7 batched-grid cells, then one anchor
   evaluation of the calibration fit): every memory-filter call and
   every program build runs with the cyclic garbage collector off, and
   the collector is on again afterwards.  The collections the run still
   triggers are recorded as data only: their counts differ between
   Python versions.
6. **Re-pricing the fit's programs** (three evaluations of the default
   anchor evaluator under three calibrations): the 12 anchor schedules
   are walked 12 times in all, once each when the evaluator lowers them
   (a rebuild per evaluation walked them 36 times), and each evaluation
   vector-prices its stage tables before building, so its 12 program
   builds (18,288 instructions) never miss the stage-time table (scalar
   pricing misses it 12 times per evaluation).  The lowerings' 12
   execution orders are recorded at construction and none per
   evaluation, and each evaluation replays its 12 programs along them:
   ``engine.events_popped`` counts the 18,288 instructions executed, and
   the evaluation runs no wavefront sweep (the wavefront ran 520 per
   evaluation).

Each gate appends its counts, with the searches' thread CPU seconds as
data only, to ``benchmarks/BENCH_search.json`` under its bench name (see
:mod:`repro.obs.trajectory`); CI uploads the file as an artifact.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace
from pathlib import Path

import repro.search.grid as grid
import repro.sim.program as program
import repro.sim.simulator as simulator
from repro.analytical.memory import _rank_param_groups, _rank_param_table
from repro.fit.residuals import AnchorEvaluator
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.obs import MetricsRegistry, Recorder, recording
from repro.obs.trajectory import record_entry
from repro.parallel.config import Method
from repro.search.cell import SearchSettings
from repro.search.grid import best_configuration, cached_schedule
from repro.search.service.serialize import result_to_json
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.cost import comm_time_table, stage_time_table
from repro.sim.cost_batch import bound_partials, comm_rank_sums

CLUSTER = DGX1_CLUSTER_64
PRUNE_ON = SearchSettings(bound_pruning=True)
PRUNE_OFF = SearchSettings(bound_pruning=False)

#: The batched-grid gate's cells: the non-looped Figure 7 panel on both
#: models.  The 6.6B B=64 cell is left out, as in the timed gate this
#: replaced; looped cells are held to their references by
#: ``tests/test_batched_grid.py``.
GRID_CELLS = (
    ("52B", MODEL_52B, 64),
    ("52B", MODEL_52B, 128),
    ("52B", MODEL_52B, 256),
    ("52B", MODEL_52B, 512),
    ("6.6B", MODEL_6_6B, 128),
    ("6.6B", MODEL_6_6B, 256),
    ("6.6B", MODEL_6_6B, 512),
)

#: The fit gate's three trial calibrations.
FIT_CALIBRATIONS = (
    DEFAULT_CALIBRATION,
    replace(DEFAULT_CALIBRATION, network_overhead_scale=2.0),
    replace(
        DEFAULT_CALIBRATION, kernel_efficiency_max=0.6, fixed_step_overhead=0.03
    ),
)

#: Perf-trajectory file (committed; CI uploads it as an artifact).
TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_search.json"


def _cold_caches() -> None:
    """Empty every process-wide memo the search fills, statistics too."""
    cached_schedule.cache_clear()
    stage_time_table.cache_clear()
    comm_time_table.cache_clear()
    bound_partials.cache_clear()
    comm_rank_sums.cache_clear()
    _rank_param_table.cache_clear()
    _rank_param_groups.cache_clear()


def _cpu_seconds(fn, *args):
    """``(fn(*args), thread CPU seconds)``: data to record, never asserted."""
    t0 = time.thread_time()
    value = fn(*args)
    return value, time.thread_time() - t0


def _search(spec, method, batch, settings):
    return best_configuration(spec, CLUSTER, method, batch, settings=settings)


def test_feasibility_filter_runs_before_simulation(monkeypatch):
    builds = []
    build_program = simulator.build_program

    def counting_build(*args, **kwargs):
        builds.append(None)
        return build_program(*args, **kwargs)

    monkeypatch.setattr(simulator, "build_program", counting_build)
    _cold_caches()
    with recording(MetricsRegistry(actor="bench")) as registry:
        outcome, seconds = _cpu_seconds(
            _search, MODEL_52B, Method.DEPTH_FIRST, 64, PRUNE_OFF
        )
    enumerated = outcome.n_tried + outcome.n_excluded + outcome.n_pruned
    priced = registry.counters["search.batch.families_priced"]
    misses = stage_time_table.cache_info().misses
    print(
        f"\nfeasibility cell DEPTH_FIRST B=64: {enumerated} enumerated, "
        f"{outcome.n_excluded} excluded, {outcome.n_tried} simulated, "
        f"{len(builds)} programs built, {priced:.0f} families priced, "
        f"{misses} stage-table misses ({seconds:.2f}s CPU)"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="search_vs_seed",
        seconds=seconds,
        cell={"model": "52B", "method": "DEPTH_FIRST", "batch": 64},
        counters={
            "n_enumerated": enumerated,
            "n_excluded": outcome.n_excluded,
            "n_tried": outcome.n_tried,
            "n_built": len(builds),
            "families_priced": priced,
            "stage_misses": misses,
        },
    )
    assert outcome.best is not None
    assert (enumerated, outcome.n_excluded, outcome.n_tried) == (135, 100, 35)
    # Only simulated candidates get a program: none of the 100 excluded.
    assert len(builds) == outcome.n_tried
    # Every survivor family vector-priced first, so no scalar pricing.
    assert priced <= 35
    assert misses == 0


def test_bound_pruning_simulates_one_candidate():
    _cold_caches()
    pruned, seconds = _cpu_seconds(
        _search, MODEL_6_6B, Method.NON_LOOPED, 512, PRUNE_ON
    )
    _cold_caches()
    full = _search(MODEL_6_6B, Method.NON_LOOPED, 512, PRUNE_OFF)
    print(
        f"\nbranch-and-bound cell NON_LOOPED B=512: {pruned.n_tried} of "
        f"{full.n_tried} feasible simulated, {pruned.n_pruned} pruned, "
        f"{pruned.n_excluded} excluded ({seconds:.2f}s CPU)"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="bound_pruning",
        seconds=seconds,
        cell={"model": "6.6B", "method": "NON_LOOPED", "batch": 512},
        counters={
            "n_tried": pruned.n_tried,
            "n_excluded": pruned.n_excluded,
            "n_pruned": pruned.n_pruned,
            "n_tried_unpruned": full.n_tried,
        },
    )
    # The serialized winner (the checkpoint payload) must not depend on
    # whether the pruning stage ran.
    assert pruned.best is not None
    assert result_to_json(pruned.best) == result_to_json(full.best)
    assert (full.n_tried, full.n_pruned, full.n_excluded) == (206, 0, 28)
    assert pruned.n_excluded == full.n_excluded
    assert pruned.n_tried + pruned.n_pruned == full.n_tried
    assert pruned.n_tried <= 1


def _grid_cells() -> list:
    return [
        _search(spec, Method.NON_LOOPED, batch, PRUNE_ON)
        for _name, spec, batch in GRID_CELLS
    ]


def test_batched_grid_work():
    _cold_caches()
    outcomes, seconds = _cpu_seconds(_grid_cells)
    n_simulated = sum(o.n_tried for o in outcomes)
    schedule_misses = cached_schedule.cache_info().misses
    stage_misses = stage_time_table.cache_info().misses
    print(
        f"\nbatched grid ({len(GRID_CELLS)} non-looped cells): "
        f"{n_simulated} simulated, {schedule_misses} schedules built, "
        f"{stage_misses} stage-table misses ({seconds:.2f}s CPU)"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="batched_grid",
        seconds=seconds,
        cell={
            "models": ["52B", "6.6B"],
            "method": "NON_LOOPED",
            "batches": sorted({batch for _n, _s, batch in GRID_CELLS}),
        },
        counters={
            "n_cells": len(GRID_CELLS),
            "n_simulated": n_simulated,
            "schedule_misses": schedule_misses,
            "stage_misses": stage_misses,
        },
    )
    assert all(o.best is not None for o in outcomes)
    assert n_simulated <= 9
    # Schedules are built for simulated candidates only, never to price
    # memory, and sibling cells share them.
    assert schedule_misses <= 4
    assert stage_misses == 0


class _CountingRecorder(Recorder):
    """A disabled recorder that counts every call made on it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.enabled_reads = 0

    @property
    def enabled(self) -> bool:
        self.enabled_reads += 1
        return False

    def _called(self, method: str) -> None:
        self.calls[method] = self.calls.get(method, 0) + 1

    def count(self, name, value=1.0):
        self._called("count")

    def observe(self, name, value):
        self._called("observe")

    def span(self, name, **attrs):
        self._called("span")
        return super().span(name, **attrs)


def test_obs_disabled_makes_no_per_candidate_calls():
    cells = {}
    for batch in (8, 64):
        _cold_caches()
        recorder = _CountingRecorder()
        with recording(recorder):
            outcome, seconds = _cpu_seconds(
                _search, MODEL_52B, Method.NON_LOOPED, batch, PRUNE_OFF
            )
        cells[batch] = (outcome, recorder, seconds)
        print(
            f"\nobs-disabled cell NON_LOOPED B={batch}: {outcome.n_tried} "
            f"simulated, calls {recorder.calls}, "
            f"{recorder.enabled_reads} enabled reads ({seconds:.2f}s CPU)"
        )
    counters = {}
    for batch, (outcome, recorder, _seconds) in cells.items():
        counters[f"b{batch}_n_tried"] = outcome.n_tried
        counters[f"b{batch}_enabled_reads"] = recorder.enabled_reads
    record_entry(
        TRAJECTORY_PATH,
        bench="obs_disabled_overhead",
        seconds=sum(seconds for _o, _r, seconds in cells.values()),
        cell={"model": "52B", "method": "NON_LOOPED", "batches": list(cells)},
        counters=counters,
    )
    for outcome, recorder, _seconds in cells.values():
        assert outcome.n_excluded > 0  # the memory filter runs too
        assert recorder.calls == {"span": 4}
        # One read per cell stage and one per engine run.
        assert recorder.enabled_reads <= outcome.n_tried + 4


def _collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def test_search_and_simulation_run_with_the_collector_paused(monkeypatch):
    phase = ["grid"]
    reads: dict[str, list[bool]] = {}

    def reading(stage: str, fn):
        def read(*args, **kwargs):
            reads.setdefault(f"{phase[0]}_{stage}", []).append(gc.isenabled())
            return fn(*args, **kwargs)

        return read

    monkeypatch.setattr(grid, "memory_model", reading("memory", grid.memory_model))
    monkeypatch.setattr(
        simulator, "build_program", reading("build", simulator.build_program)
    )
    assert gc.isenabled()
    _cold_caches()
    before = _collections()
    outcomes, grid_seconds = _cpu_seconds(_grid_cells)
    phase[0] = "fit"
    evaluator = AnchorEvaluator()
    residuals, fit_seconds = _cpu_seconds(evaluator.evaluate, DEFAULT_CALIBRATION)
    collections = [b - a for a, b in zip(before, _collections())]
    calls = {name: len(values) for name, values in sorted(reads.items())}
    enabled_reads = sum(sum(values) for values in reads.values())
    print(
        f"\ncollector paused ({len(GRID_CELLS)} grid cells, "
        f"{len(residuals)} anchors): calls {calls}, {enabled_reads} with "
        f"the collector on, collections per generation {collections} "
        f"({grid_seconds + fit_seconds:.2f}s CPU)"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="gc_paused",
        seconds=grid_seconds + fit_seconds,
        cell={
            "models": ["52B", "6.6B"],
            "method": "NON_LOOPED",
            "batches": sorted({batch for _n, _s, batch in GRID_CELLS}),
            "anchors": len(residuals),
        },
        counters={
            **{f"{name}_calls": n for name, n in calls.items()},
            "enabled_reads": enabled_reads,
            **{f"gen{i}_collections": n for i, n in enumerate(collections)},
        },
    )
    assert all(o.best is not None for o in outcomes)
    # The memory filter runs only in a search; the fit builds programs.
    assert set(calls) == {"grid_memory", "grid_build", "fit_build"}
    assert enabled_reads == 0
    assert gc.isenabled()


def test_fit_reprices_anchor_programs(monkeypatch):
    walks = []
    walk = program._ProgramBuilder.build

    def counting_walk(self):
        walks.append(None)
        return walk(self)

    builds: list[list[int]] = []
    build_program = simulator.build_program

    def counting_build(*args, **kwargs):
        streams = build_program(*args, **kwargs)
        builds[-1].append(sum(len(queue) for queue in streams.values()))
        return streams

    orders = []
    record_order = program.record_order

    def counting_record(streams):
        orders.append(None)
        return record_order(streams)

    monkeypatch.setattr(program._ProgramBuilder, "build", counting_walk)
    monkeypatch.setattr(simulator, "build_program", counting_build)
    monkeypatch.setattr(program, "record_order", counting_record)
    _cold_caches()
    evaluator = AnchorEvaluator()
    recorded = len(orders)
    misses = []
    engine = []
    seconds = 0.0
    for calibration in FIT_CALIBRATIONS:
        builds.append([])
        before = stage_time_table.cache_info().misses
        with recording(MetricsRegistry(actor="bench")) as registry:
            _residuals, spent = _cpu_seconds(evaluator.evaluate, calibration)
        seconds += spent
        misses.append(stage_time_table.cache_info().misses - before)
        engine.append(tuple(
            int(registry.counters.get(f"engine.{name}", 0))
            for name in ("ordered_runs", "events_popped", "sweeps")
        ))
    built = [len(counts) for counts in builds]
    instructions = [sum(counts) for counts in builds]
    print(
        f"\nfit re-pricing ({len(evaluator.anchors)} anchors, "
        f"{len(FIT_CALIBRATIONS)} evaluations): {len(walks)} schedule walks, "
        f"{recorded} orders recorded at construction and "
        f"{len(orders) - recorded} after, stage-table misses per evaluation "
        f"{misses}, programs built {built}, instructions {instructions}, "
        f"(ordered runs, events popped, sweeps) per evaluation {engine} "
        f"({seconds:.2f}s CPU)"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="fit_reprices",
        seconds=seconds,
        cell={
            "anchors": len(evaluator.anchors),
            "evaluations": len(FIT_CALIBRATIONS),
        },
        counters={
            "walks": len(walks),
            "orders": len(orders),
            "stage_misses": sum(misses),
            "n_built": sum(built),
            "instructions": sum(instructions),
            "ordered_runs": sum(runs for runs, _, _ in engine),
            "events": sum(events for _, events, _ in engine),
            "sweeps": sum(sweeps for _, _, sweeps in engine),
        },
    )
    # Each anchor is walked once, when the evaluator lowers it.
    assert len(walks) <= 12
    # Its order is recorded then too, and never per evaluation.
    assert recorded <= 12
    assert len(orders) == recorded
    # Each evaluation runs its 12 programs along their orders: every
    # instruction executes once and no wavefront sweep runs.
    assert engine == [(12, 18_288, 0)] * len(FIT_CALIBRATIONS)
    # Each evaluation vector-prices first, so no scalar pricing.
    assert misses == [0] * len(FIT_CALIBRATIONS)
    # The benchmark's counting point: one full program per anchor.
    assert built == [12] * len(FIT_CALIBRATIONS)
    assert instructions == [18_288] * len(FIT_CALIBRATIONS)
