"""Tables E.1-E.3: selected optimal configurations per method and batch.

Renders a Figure 7 panel's search outcomes with the same columns the paper
reports: method, batch, implementation, N_PP, N_TP, S_mb, N_mb, N_loop,
sharding, throughput, memory and predicted-minimum memory, plus the
number of configurations tried.
"""

from __future__ import annotations

from repro.experiments.fig7 import Fig7Panel
from repro.parallel.config import Sharding
from repro.utils.tables import ascii_table
from repro.utils.units import GB

#: Panel name -> paper table number.
TABLE_OF_PANEL = {"52B": "E.1", "6.6B": "E.2", "6.6B-ethernet": "E.3"}


def format_table_e(fig7_panel: Fig7Panel) -> str:
    """Render one Appendix E table from search outcomes."""
    rows = []
    for method, outcomes in fig7_panel.outcomes.items():
        for outcome in outcomes:
            if outcome.best is None:
                rows.append(
                    (method.value, outcome.batch_size, "-", "-", "-", "-", "-",
                     "-", "-", "OOM", "-", "-", outcome.n_tried)
                )
                continue
            best = outcome.best
            cfg = best.config
            rows.append(
                (
                    method.value,
                    outcome.batch_size,
                    best.implementation_name,
                    cfg.n_pp,
                    cfg.n_tp,
                    cfg.microbatch_size,
                    cfg.n_microbatches,
                    cfg.n_loop,
                    "yes" if cfg.sharding is not Sharding.NONE else "no",
                    f"{best.throughput_per_gpu / 1e12:.2f}",
                    f"{best.memory.total / GB:.2f}",
                    f"{best.memory.total_min / GB:.2f}",
                    outcome.n_tried,
                )
            )
    table_no = TABLE_OF_PANEL.get(fig7_panel.name, "E.?")
    return ascii_table(
        ["Method", "Batch", "Impl", "NPP", "NTP", "Smb", "Nmb", "Nloop",
         "Sharded", "Tflop/s/GPU", "Mem (GB)", "Mem min (GB)", "Configs"],
        rows,
        title=(
            f"Table {table_no}: selected optimal configurations "
            f"({fig7_panel.name})"
        ),
    )
