"""Throughput/memory Pareto frontier of the Figure-7 grid (extension).

Figure 7 answers "which method is fastest at each batch size"; this
experiment asks the question the paper's Section 5 trade-off actually
poses: *what does each unit of in-flight activation memory buy?*  Every
(method, batch) cell of a panel is re-searched under
:class:`~repro.search.objective.ParetoFrontObjective` — with the
Section 4.2 hybrid axis enabled — and the per-method frontiers are
merged into one combined throughput/peak-memory frontier per batch
size.

The interesting output is where *non-breadth-first* configurations
enter the combined frontier: a hybrid or depth-first point there is, by
construction, dominated by no breadth-first configuration — it reaches
a throughput/memory trade-off breadth-first cannot.  This is the
search-level confirmation of the PR 3 finding (hybrids match
breadth-first throughput at a fraction of the memory) and of the
paper's own Table 4.1 memory columns, and it is what the
memory-constrained objective exploits to flip winners
(``--objective memory-constrained --memory-headroom ...``).

``repro-experiments frontier`` drives it; the CI smoke run asserts the
non-breadth-first foothold exists (exit status 1 otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.fig7 import PANEL_BATCHES, QUICK_BATCHES, panel_setup
from repro.parallel.config import Method, ScheduleKind
from repro.search.cell import SweepCell
from repro.search.grid import SearchOutcome
from repro.search.objective import ParetoFrontObjective, pareto_frontier
from repro.search.service import SweepOptions, run_sweep
from repro.sim.simulator import SimulationResult
from repro.utils.units import GB

__all__ = [
    "FrontierCell",
    "FrontierPoint",
    "format_frontier",
    "run_frontier",
]


@dataclass(frozen=True)
class FrontierPoint:
    """One configuration on (or near) the combined frontier."""

    method: Method
    result: SimulationResult

    @property
    def schedule(self) -> ScheduleKind:
        return self.result.config.schedule

    @property
    def throughput_tflops(self) -> float:
        return self.result.throughput_per_gpu / 1e12

    @property
    def memory_gb(self) -> float:
        return self.result.memory.total / GB


def _merged_frontier(
    points: list[FrontierPoint],
) -> tuple[FrontierPoint, ...]:
    """Non-dominated subset of the union of per-method frontiers.

    The frontier of a union equals the frontier of the union of the
    subsets' frontiers, so merging per-method frontiers loses nothing.
    Dominance and ordering are exactly
    :func:`repro.search.objective.pareto_frontier`'s — the points are
    unwrapped, filtered there, and re-wrapped, so the combined frontier
    can never diverge from the per-cell rule.
    """
    point_of = {id(p.result): p for p in points}
    return tuple(
        point_of[id(result)]
        for result in pareto_frontier([p.result for p in points])
    )


@dataclass(frozen=True)
class FrontierCell:
    """One batch size's combined throughput/memory frontier."""

    batch_size: int
    outcomes: dict[Method, SearchOutcome]
    frontier: tuple[FrontierPoint, ...]

    @property
    def non_breadth_first(self) -> tuple[FrontierPoint, ...]:
        """Frontier points no breadth-first configuration dominates —
        any schedule family, for reporting."""
        return tuple(
            p
            for p in self.frontier
            if p.schedule is not ScheduleKind.BREADTH_FIRST
        )

    @property
    def hybrid_or_depth_first(self) -> tuple[FrontierPoint, ...]:
        """The footholds the CI guard asserts: hybrid or depth-first
        frontier points specifically (a memory-light GPipe/1F1B point
        must not satisfy the claim)."""
        return tuple(
            p
            for p in self.frontier
            if p.schedule in (ScheduleKind.HYBRID, ScheduleKind.DEPTH_FIRST)
        )


def run_frontier(
    panel: str = "6.6B",
    *,
    quick: bool = True,
    batch_sizes: list[int] | None = None,
    methods: list[Method] | None = None,
    options: SweepOptions | None = None,
) -> list[FrontierCell]:
    """Search one panel's grid under the Pareto objective, all methods.

    Runs through the sweep service like every search-backed experiment
    (checkpointing, the pool and ``--no-bound-pruning`` all apply); the
    Pareto objective and the hybrid axis are folded into the checkpoint
    keys, so these cells never collide with plain Figure 7 sweeps in a
    shared directory.
    """
    spec, cluster = panel_setup(panel)
    if batch_sizes is None:
        batch_sizes = (QUICK_BATCHES if quick else PANEL_BATCHES)[panel]
    if methods is None:
        methods = list(Method)
    if options is None:
        options = SweepOptions()
    # The frontier question needs the hybrid axis in the space — the
    # whole point is seeing where sequence-shortened schedules land.
    settings = replace(
        options.settings, include_hybrid=True, objective=ParetoFrontObjective()
    )
    cells = [
        SweepCell(method, batch) for method in methods for batch in batch_sizes
    ]
    outcomes = run_sweep(
        spec, cluster, cells, options=replace(options, settings=settings)
    )
    by_cell = dict(zip(cells, outcomes))

    results = []
    for batch in batch_sizes:
        cell_outcomes = {
            method: by_cell[SweepCell(method, batch)] for method in methods
        }
        points = [
            FrontierPoint(method=method, result=result)
            for method, outcome in cell_outcomes.items()
            for result in (outcome.frontier or ())
        ]
        results.append(
            FrontierCell(
                batch_size=batch,
                outcomes=cell_outcomes,
                frontier=_merged_frontier(points),
            )
        )
    return results


def format_frontier(cells: list[FrontierCell], *, chart: bool = True) -> str:
    """Render the combined frontiers as tables (and an ASCII scatter)."""
    from repro.utils.tables import ascii_table
    from repro.viz.chart import ascii_frontier_chart

    blocks = []
    for cell in cells:
        rows = [
            (
                p.schedule.value,
                p.method.value,
                f"{p.throughput_tflops:.2f}",
                f"{p.memory_gb:.2f}",
                p.result.config.describe(),
            )
            for p in cell.frontier
        ]
        blocks.append(ascii_table(
            ["Schedule", "Method", "Tflop/s", "Mem (GB)", "Config"],
            rows,
            title=f"B={cell.batch_size}: combined throughput/memory frontier",
        ))
        if chart:
            series: dict[str, list[tuple[float, float]]] = {}
            for method, outcome in cell.outcomes.items():
                for result in outcome.frontier or ():
                    series.setdefault(result.config.schedule.value, []).append(
                        (result.memory.total / GB, result.throughput_per_gpu / 1e12)
                    )
            blocks.append(ascii_frontier_chart(
                series,
                title=f"B={cell.batch_size}: per-method frontier points",
            ))
        footholds = cell.non_breadth_first
        blocks.append(
            f"non-breadth-first frontier points at B={cell.batch_size}: "
            + (
                ", ".join(
                    f"{p.schedule.value} ({p.throughput_tflops:.1f} Tflop/s, "
                    f"{p.memory_gb:.1f} GB)"
                    for p in footholds
                )
                if footholds
                else "none"
            )
        )
    return "\n".join(blocks)
