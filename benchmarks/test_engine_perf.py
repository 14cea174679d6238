"""Work-count gates: the search pipeline's four wins, counted, not timed.

Each gate pins the deterministic count that carries one algorithmic win,
as an upper bound at the value measured when the gate landed, so a later
improvement still passes and the machine's load can never fail it:

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
   opens its 4 spans and 3 timers, records nothing, and reads the flag
   once per cell or engine run, never per candidate.

Each gate appends its counts, with the searches' thread CPU seconds as
data only, to ``benchmarks/BENCH_search.json`` under its bench name (see
:mod:`repro.obs.trajectory`); CI uploads the file as an artifact.
"""

from __future__ import annotations

import time
from pathlib import Path

import repro.sim.simulator as simulator
from repro.analytical.memory import _rank_param_groups, _rank_param_table
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.obs import MetricsRegistry, Recorder, recording
from repro.obs.trajectory import record_entry
from repro.parallel.config import Method
from repro.search.cell import SearchSettings
from repro.search.grid import best_configuration, cached_schedule
from repro.search.service.serialize import result_to_json
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


def test_batched_grid_work():
    def grid():
        return [
            _search(spec, Method.NON_LOOPED, batch, PRUNE_ON)
            for _name, spec, batch in GRID_CELLS
        ]

    _cold_caches()
    outcomes, seconds = _cpu_seconds(grid)
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

    def gauge(self, name, value):
        self._called("gauge")

    def gauge_max(self, name, value):
        self._called("gauge_max")

    def observe(self, name, value):
        self._called("observe")

    def span(self, name, **attrs):
        self._called("span")
        return super().span(name, **attrs)

    def timer(self, name):
        self._called("timer")
        return super().timer(name)


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
        assert recorder.calls == {"span": 4, "timer": 3}
        # One read per cell stage and one per engine run.
        assert recorder.enabled_reads <= outcome.n_tried + 4
