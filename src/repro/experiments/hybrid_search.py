"""Hybrid-schedule search: a Figure-7-style comparison (Section 4.2).

The paper conjectures that depth-first sequences longer than ``N_PP``
— "essentially forming a hybrid between the two schedules" — would
restore transfer overlap.  ``benchmarks/test_hybrid_extension.py``
verifies the conjecture at one hand-picked configuration; this
experiment asks the stronger, search-level question: *if the grid search
may pick hybrid configurations, does it, and what does that buy?*

For each batch size of a Figure 7 panel the breadth-first cell is
searched twice — once over the paper's space, once with the
``sequence_size`` axis added (``SearchSettings(include_hybrid=True)``) —
and the winners are compared.  Because the hybrid space is a strict
superset, the hybrid winner can never be worse; the interesting outputs
are where the winner actually switches schedule, the utilization delta,
and the in-flight activation (checkpoint memory) savings when a hybrid
matches breadth-first throughput with shorter sequences.  The cells also
demonstrate the branch-and-bound stage at scale: ``n_pruned`` counts how
much of the enlarged space the bound refused to simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.fig7 import PANEL_BATCHES, QUICK_BATCHES, panel_setup
from repro.parallel.config import Method, ScheduleKind
from repro.search.cell import SweepCell
from repro.search.grid import SearchOutcome
from repro.search.service import SweepOptions, run_sweep


@dataclass(frozen=True)
class HybridComparison:
    """One batch size's breadth-first-only vs hybrid-enabled winners."""

    batch_size: int
    baseline: SearchOutcome
    hybrid: SearchOutcome

    @property
    def winner_is_hybrid(self) -> bool:
        best = self.hybrid.best
        return (
            best is not None and best.config.schedule is ScheduleKind.HYBRID
        )

    @property
    def utilization_gain(self) -> float:
        """Relative utilization gain of opening the hybrid axis (>= 0 up
        to simulation determinism; the space is a superset)."""
        if self.baseline.best is None or self.hybrid.best is None:
            return 0.0
        return (
            self.hybrid.best.utilization / self.baseline.best.utilization
            - 1.0
        )


def run_hybrid_search(
    panel: str = "6.6B",
    *,
    quick: bool = True,
    batch_sizes: list[int] | None = None,
    options: SweepOptions | None = None,
) -> list[HybridComparison]:
    """Search one panel's breadth-first cells with and without the axis.

    Both sweeps run through the same service (checkpointing, the pool and
    ``--no-bound-pruning`` all apply); their checkpoint keys differ by
    the ``include_hybrid`` setting, so one directory holds both.
    """
    spec, cluster = panel_setup(panel)
    if batch_sizes is None:
        batch_sizes = (QUICK_BATCHES if quick else PANEL_BATCHES)[panel]
    cells = [SweepCell(Method.BREADTH_FIRST, b) for b in batch_sizes]
    if options is None:
        options = SweepOptions()
    baseline = run_sweep(spec, cluster, cells, options=options)
    hybrid_settings = replace(options.settings, include_hybrid=True)
    hybrid = run_sweep(
        spec, cluster, cells, options=replace(options, settings=hybrid_settings)
    )
    return [
        HybridComparison(batch_size=b, baseline=base, hybrid=hyb)
        for b, base, hyb in zip(batch_sizes, baseline, hybrid)
    ]


def format_hybrid_search(comparisons: list[HybridComparison]) -> str:
    """Render the comparison as the experiments CLI's text table."""
    from repro.utils.tables import ascii_table

    rows = []
    for c in comparisons:
        base, hyb = c.baseline.best, c.hybrid.best
        rows.append((
            c.batch_size,
            "-" if base is None else f"{base.utilization * 100:.1f}%",
            "-" if hyb is None else f"{hyb.utilization * 100:.1f}%",
            "-" if hyb is None else hyb.config.describe(),
            f"{c.utilization_gain * 100:+.2f}%",
            c.hybrid.n_tried,
            c.hybrid.n_pruned,
        ))
    return ascii_table(
        ["B", "BF best", "Hybrid-space best", "Winning config", "gain",
         "tried", "pruned"],
        rows,
        title="Hybrid sequence_size axis vs the paper's breadth-first space",
    )
