"""The cyclic garbage collector's pause (:func:`repro.utils.gc_paused`).

A search cell and a simulation run with the collector off.  That is free
only because neither creates reference cycles: reference counting frees
everything they allocate, so the pause defers no garbage.  The first
half of this module holds both units to that: with the collector off, a
collection after each unit must find nothing.  A new cycle in the hot
path fails here instead of quietly growing memory.

The second half holds the pause to the collector's state: it is on again
after the block, whether the block exits normally or raises, and a
collector that was off is left off.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

import repro.search.grid as grid
import repro.sim.simulator as simulator
from repro.fit.residuals import AnchorEvaluator
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_52B
from repro.obs import MetricsRegistry, recording
from repro.parallel.config import Method
from repro.search.grid import best_configuration
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.engine import EngineDeadlock
from repro.sim.simulator import simulate
from repro.utils import gc_paused

CLUSTER = DGX1_CLUSTER_64
BATCH = 8


def _cyclic_garbage(unit) -> tuple[int, Counter]:
    """``(objects found, their types)`` left in reference cycles by ``unit()``.

    The collector is off while the unit runs, so nothing it allocates is
    collected before the count.  ``DEBUG_SAVEALL`` keeps what the count
    finds in ``gc.garbage``, so a failure can name the types.
    """
    enabled, flags = gc.isenabled(), gc.get_debug()
    saved = len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        unit()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        found = gc.collect()
        types = Counter(type(obj).__name__ for obj in gc.garbage[saved:])
    finally:
        del gc.garbage[saved:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    return found, types


def _assert_no_cycles(unit) -> None:
    found, types = _cyclic_garbage(unit)
    assert found == 0, f"{found} objects in reference cycles: {dict(types)}"


def _search(method: Method) -> None:
    best_configuration(MODEL_52B, CLUSTER, method, BATCH)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.name)
    def test_search_cell(self, method):
        _assert_no_cycles(lambda: _search(method))

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.name)
    def test_search_cell_under_a_recorder(self, method):
        def unit():
            with recording(MetricsRegistry(actor="test")):
                _search(method)

        _assert_no_cycles(unit)

    def test_simulation_with_a_timeline(self):
        outcome = best_configuration(
            MODEL_52B, CLUSTER, Method.BREADTH_FIRST, BATCH
        )
        config = outcome.best.config

        def unit():
            result = simulate(MODEL_52B, config, CLUSTER, record_events=True)
            assert result.timeline

        _assert_no_cycles(unit)

    def test_anchor_evaluation(self):
        _assert_no_cycles(
            lambda: AnchorEvaluator().evaluate(DEFAULT_CALIBRATION)
        )


@pytest.fixture
def collector_on():
    """Start with the collector on; restore its earlier state afterwards."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorState:
    def test_off_inside_and_on_after(self, collector_on):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_on_after_the_body_raises(self, collector_on):
        with pytest.raises(RuntimeError, match="boom"):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_a_collector_that_was_off_stays_off(self, collector_on):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pauses_resume_at_the_outer_exit(self, collector_on):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_on_after_a_search_that_raises(self, collector_on, monkeypatch):
        reads = []

        def deadlocked_stage(*args, **kwargs):
            reads.append(gc.isenabled())
            raise EngineDeadlock("injected")

        monkeypatch.setattr(grid, "_simulate_stage", deadlocked_stage)
        with pytest.raises(EngineDeadlock, match="injected"):
            _search(Method.NON_LOOPED)
        assert reads == [False]
        assert gc.isenabled()

    def test_on_after_a_simulation_that_raises(self, collector_on, monkeypatch):
        reads = []

        def deadlocked_engine(*args, **kwargs):
            reads.append(gc.isenabled())
            raise EngineDeadlock("injected")

        outcome = best_configuration(MODEL_52B, CLUSTER, Method.NON_LOOPED, BATCH)
        monkeypatch.setattr(simulator, "run_streams", deadlocked_engine)
        with pytest.raises(EngineDeadlock, match="injected"):
            simulate(MODEL_52B, outcome.best.config, CLUSTER)
        assert reads == [False]
        assert gc.isenabled()
