"""Compatibility wrappers over the sweep service.

``sweep_cells``/``sweep_grid`` predate :mod:`repro.search.service`; they
are kept as the stable convenience API for "search this grid on this
machine" and now delegate to :func:`repro.search.service.run_sweep` with
the ``multiprocessing`` backend.  Two behaviour changes from the
original pool, both deliberate:

- Spawn-only platforms get a real process pool: the pool initializer
  rebuilds the search context in each child, instead of the old silent
  degradation to a single process.  (``fork`` is still preferred where
  available — forked workers inherit the warm schedule cache.)
- Checkpointing, resume, progress reporting and the other backends are
  reachable by passing a :class:`~repro.search.service.SweepOptions`.

Results are byte-identical across all backends and worker orderings:
cells are independent, and within a cell the search is deterministic
(including throughput ties — see :func:`repro.search.grid.best_configuration`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import replace

from repro.hardware.cluster import ClusterSpec
from repro.models.spec import TransformerSpec
from repro.parallel.config import Method
from repro.search.cell import SweepCell
from repro.search.grid import SearchOutcome
from repro.search.objective import Objective
from repro.search.service.service import SweepOptions, run_sweep
from repro.sim.calibration import Calibration

__all__ = ["SweepCell", "sweep_cells", "sweep_grid"]


def sweep_cells(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    cells: Iterable[SweepCell],
    *,
    calibration: Calibration | None = None,
    processes: int | None = None,
    options: SweepOptions | None = None,
    objective: Objective | None = None,
) -> list[SearchOutcome]:
    """Search every cell; return outcomes in the input order.

    Args:
        spec: Model to search for.
        cluster: Hardware description.
        cells: The (method, batch size) cells to search.
        calibration: Cost-model constants, shared by all cells
            (``None`` defers to ``options.calibration``).
        processes: Pool size; ``None`` uses the CPU count (capped at the
            number of cells), ``1`` runs serially in this process.
        options: Full service options (backend, checkpointing, resume).
            When given, ``processes``/``objective`` override its fields
            only if not None.
        objective: Search objective for every cell (``None`` defers to
            ``options.objective``; see :mod:`repro.search.objective`).
    """
    if options is None:
        options = SweepOptions(processes=processes)
    elif processes is not None:
        options = replace(options, processes=processes)
    if objective is not None:
        options = replace(options, objective=objective)
    return run_sweep(
        spec, cluster, cells, calibration=calibration, options=options
    )


def sweep_grid(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    methods: Sequence[Method],
    batch_sizes: Sequence[int],
    *,
    calibration: Calibration | None = None,
    processes: int | None = None,
    options: SweepOptions | None = None,
    objective: Objective | None = None,
) -> dict[Method, list[SearchOutcome]]:
    """Search the full methods x batch-sizes grid of one Figure 7 panel.

    Returns outcomes grouped by method, each list in ``batch_sizes``
    order — the shape the experiment plotters consume.
    """
    cells = [
        SweepCell(method, batch) for method in methods for batch in batch_sizes
    ]
    outcomes = sweep_cells(
        spec,
        cluster,
        cells,
        calibration=calibration,
        processes=processes,
        options=options,
        objective=objective,
    )
    grouped: dict[Method, list[SearchOutcome]] = {m: [] for m in methods}
    for cell, outcome in zip(cells, outcomes):
        grouped[cell.method].append(outcome)
    return grouped
