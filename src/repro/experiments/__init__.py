"""Experiment drivers: one module per figure/table of the paper.

Each driver exposes a ``run_*`` function returning structured data plus a
``format_*`` helper that renders the same rows/series the paper reports.
The benchmarks under ``benchmarks/`` call these drivers; the
``repro-experiments`` CLI (:mod:`repro.experiments.runner`) runs them all.
"""

from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.table41 import run_table41
from repro.experiments.table51 import run_table51
from repro.experiments.tableE import format_table_e

__all__ = [
    "format_table_e",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_table41",
    "run_table51",
]
