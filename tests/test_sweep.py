"""Tests for ``sweep_grid``, one Figure 7 panel's grid over the service."""

from __future__ import annotations

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import Method
from repro.search import sweep as sweep_module
from repro.search.service import SweepOptions
from repro.search.sweep import sweep_grid

SERIAL = SweepOptions(processes=1)


class TestSweepGrid:
    def test_groups_by_method_in_batch_order(self):
        methods = [Method.NO_PIPELINE, Method.DEPTH_FIRST]
        batches = [8, 64]
        grouped = sweep_grid(
            MODEL_6_6B, DGX1_CLUSTER_64, methods, batches, options=SERIAL
        )
        assert list(grouped) == methods
        for method, outcomes in grouped.items():
            assert [o.batch_size for o in outcomes] == batches
            assert all(o.method is method for o in outcomes)

    def test_runs_the_sweep_through_the_module_global(self, monkeypatch):
        # Wrapping ``repro.search.sweep.run_sweep`` must see every panel
        # sweep: perfbench's tracer times the sweep under that name.
        real = sweep_module.run_sweep
        calls = []

        def spy(spec, cluster, cells, *, options):
            calls.append((list(cells), options))
            return real(spec, cluster, cells, options=options)

        monkeypatch.setattr(sweep_module, "run_sweep", spy)
        sweep_grid(
            MODEL_6_6B, DGX1_CLUSTER_64, [Method.NO_PIPELINE], [8],
            options=SERIAL,
        )
        assert len(calls) == 1
        cells, options = calls[0]
        assert [(c.method, c.batch_size) for c in cells] == [
            (Method.NO_PIPELINE, 8)
        ]
        assert options is SERIAL
