"""Figure 7: best utilization per method vs batch size (grid search).

Panels: (a) 52B on InfiniBand, (b) 6.6B on InfiniBand, (c) 6.6B on
Ethernet, all on the 64-V100 cluster.  Each point is the best
configuration found by the Appendix E grid search
(:mod:`repro.search`), with the (method, batch) cells fanned out over
the :mod:`repro.search.sweep` process pool.  The full batch lists match
the paper's panels; a ``quick`` subset keeps benchmark runtime
reasonable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cluster import (
    DGX1_CLUSTER_64,
    DGX1_CLUSTER_64_ETHERNET,
    ClusterSpec,
)
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.models.spec import TransformerSpec
from repro.parallel.config import Method
from repro.search.grid import SearchOutcome
from repro.search.service import SweepOptions
from repro.search.sweep import sweep_grid

#: Batch lists per panel (beta = B / 64 spans the paper's x ranges).
PANEL_BATCHES: dict[str, list[int]] = {
    "52B": [8, 16, 32, 64, 128, 256, 512],
    "6.6B": [32, 64, 128, 256, 512],
    "6.6B-ethernet": [64, 128, 256, 512],
}
QUICK_BATCHES: dict[str, list[int]] = {
    "52B": [8, 64, 256],
    "6.6B": [32, 128, 512],
    "6.6B-ethernet": [64, 256],
}


@dataclass(frozen=True)
class Fig7Panel:
    """One panel's search results."""

    name: str
    spec: TransformerSpec
    cluster: ClusterSpec
    outcomes: dict[Method, list[SearchOutcome]]

    def curves(self) -> dict[str, list[tuple[float, float]]]:
        """``{method: [(beta, utilization%)]}`` for plotting."""
        n_gpus = self.cluster.n_gpus
        curves: dict[str, list[tuple[float, float]]] = {}
        for method, outcomes in self.outcomes.items():
            curves[method.value] = [
                (o.batch_size / n_gpus, o.best.utilization * 100.0)
                for o in outcomes
                if o.best is not None
            ]
        return curves


def panel_setup(name: str) -> tuple[TransformerSpec, ClusterSpec]:
    """Model and cluster for a named panel."""
    if name == "52B":
        return MODEL_52B, DGX1_CLUSTER_64
    if name == "6.6B":
        return MODEL_6_6B, DGX1_CLUSTER_64
    if name == "6.6B-ethernet":
        return MODEL_6_6B, DGX1_CLUSTER_64_ETHERNET
    raise ValueError(f"unknown panel {name!r}; choose from {sorted(PANEL_BATCHES)}")


def run_fig7(
    panel: str,
    *,
    quick: bool = True,
    options: SweepOptions | None = None,
) -> Fig7Panel:
    """Run the search for one Figure 7 panel, all four methods.

    Args:
        panel: "52B", "6.6B" or "6.6B-ethernet".
        quick: Use the reduced batch list (default for benches); the full
            paper sweep is selected with ``quick=False``.
        options: Sweep-service settings (pool size, checkpointing,
            resume); the checkpoint keys are content hashes, so all
            three panels can share one checkpoint directory.
    """
    spec, cluster = panel_setup(panel)
    batch_sizes = (QUICK_BATCHES if quick else PANEL_BATCHES)[panel]
    outcomes = sweep_grid(
        spec, cluster, list(Method), batch_sizes, options=options
    )
    return Fig7Panel(name=panel, spec=spec, cluster=cluster, outcomes=outcomes)
