"""``sweep_grid``: one Figure 7 panel's methods x batch-sizes grid.

It searches every (method, batch size) cell through
:func:`repro.search.service.run_sweep`, configured by one
:class:`~repro.search.service.SweepOptions`, and groups the outcomes by
method, the shape the experiment plotters consume.

Results are byte-identical across all backends and worker orderings:
cells are independent, and within a cell the search is deterministic
(including throughput ties — see :func:`repro.search.grid.best_configuration`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.hardware.cluster import ClusterSpec
from repro.models.spec import TransformerSpec
from repro.parallel.config import Method
from repro.search.cell import SweepCell
from repro.search.grid import SearchOutcome
from repro.search.service.service import SweepOptions, run_sweep

__all__ = ["sweep_grid"]


def sweep_grid(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    methods: Sequence[Method],
    batch_sizes: Sequence[int],
    *,
    options: SweepOptions | None = None,
) -> dict[Method, list[SearchOutcome]]:
    """Search the full methods x batch-sizes grid of one Figure 7 panel.

    Returns outcomes grouped by method, each list in ``batch_sizes``
    order.
    """
    cells = [
        SweepCell(method, batch) for method in methods for batch in batch_sizes
    ]
    # ``run_sweep`` is looked up in this module on each call: perfbench's
    # tracer times the sweep by replacing ``repro.search.sweep.run_sweep``.
    outcomes = run_sweep(spec, cluster, cells, options=options)
    grouped: dict[Method, list[SearchOutcome]] = {m: [] for m in methods}
    for cell, outcome in zip(cells, outcomes):
        grouped[cell.method].append(outcome)
    return grouped
