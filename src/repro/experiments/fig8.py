"""Figure 8: cost vs time trade-off, extrapolated from Figure 7.

Each method's best (beta, utilization) points become a
:class:`~repro.sgd.tradeoff.UtilizationCurve`; Eq. (7)/(8) extrapolate to
256-16384 GPUs at the method's best beta per cluster size.
"""

from __future__ import annotations

from repro.experiments.fig7 import Fig7Panel
from repro.sgd.tradeoff import (
    BCRIT_6_6B,
    BCRIT_52B,
    TradeoffPoint,
    UtilizationCurve,
    tradeoff_curve,
)

#: Cluster sizes annotated in Figure 8.
CLUSTER_SIZES: dict[str, list[int]] = {
    "52B": [256, 1024, 4096, 16384],
    "6.6B": [256, 1024, 4096],
    "6.6B-ethernet": [256, 1024, 4096],
}

CRITICAL_BATCH: dict[str, float] = {
    "52B": BCRIT_52B,
    "6.6B": BCRIT_6_6B,
    "6.6B-ethernet": BCRIT_6_6B,
}


def run_fig8(fig7_panel: Fig7Panel) -> dict[str, list[TradeoffPoint]]:
    """Trade-off curves per method: ``{method: [TradeoffPoint per size]}``.

    Extrapolates the Figure 7 panel ``fig7_panel`` ("52B", "6.6B" or
    "6.6B-ethernet") to that panel's :data:`CLUSTER_SIZES`.
    """
    panel = fig7_panel.name
    spec = fig7_panel.spec
    peak = fig7_panel.cluster.gpu.peak_flops
    n_gpus = fig7_panel.cluster.n_gpus
    bcrit = CRITICAL_BATCH[panel]

    results: dict[str, list[TradeoffPoint]] = {}
    for method, outcomes in fig7_panel.outcomes.items():
        points = tuple(
            (o.batch_size / n_gpus, o.best.utilization)
            for o in outcomes
            if o.best is not None
        )
        if not points:
            continue
        curve = UtilizationCurve(method=method.value, points=points)
        results[method.value] = tradeoff_curve(
            curve,
            CLUSTER_SIZES[panel],
            bcrit,
            spec.flops_per_sample(with_recompute=True),
            peak,
        )
    return results
