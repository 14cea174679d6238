"""Figure 1: headline bars — predicted training time and memory for the
52B model on 4096 V100s, per method.

The time bars come from the Figure 8 extrapolation at 4096 GPUs; the
memory bars are the predicted minimum per-GPU memory (sharded data
parallelism fully amortized, as on a 4096-GPU cluster) of the
configuration each method would run there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.fig7 import Fig7Panel
from repro.experiments.fig8 import run_fig8
from repro.parallel.config import Method
from repro.utils.units import GB

HEADLINE_GPUS = 4096

#: Paper's Figure 1 method labels keyed by our Method enum.
_LABELS = {
    Method.BREADTH_FIRST: "3d (Ours)",
    Method.DEPTH_FIRST: "3d (Megatron-LM)",
    Method.NON_LOOPED: "3d (GPipe/1F1B)",
    Method.NO_PIPELINE: "2d",
}


@dataclass(frozen=True)
class Fig1Bar:
    """One method's headline numbers."""

    label: str
    training_days: float
    memory_gb: float
    beta: float
    utilization: float


def run_fig1(fig7_panel: Fig7Panel) -> list[Fig1Bar]:
    """The four Figure 1 bars of the 52B Figure 7 panel, ordered as in the
    paper."""
    fig8 = run_fig8(fig7_panel)

    bars = []
    for method in Method:
        label = _LABELS[method]
        points = fig8.get(method.value)
        if not points:
            continue
        at_4096 = next(p for p in points if p.n_gpus == HEADLINE_GPUS)
        # Memory: the best measured config at (roughly) the chosen beta,
        # with sharded state amortized over the large cluster.
        outcomes = [o for o in fig7_panel.outcomes[method] if o.best is not None]
        chosen = min(
            outcomes,
            key=lambda o: abs(
                o.batch_size / fig7_panel.cluster.n_gpus - at_4096.beta
            ),
        )
        bars.append(
            Fig1Bar(
                label=label,
                training_days=at_4096.time_days,
                memory_gb=chosen.best.memory.total_min / GB,
                beta=at_4096.beta,
                utilization=at_4096.utilization,
            )
        )
    return bars
