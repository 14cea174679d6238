"""Residuals of a candidate calibration against the published anchors.

The fitter's ground truth is :data:`repro.paper_data.PAPER_ANCHORS` — the
Appendix E rows transcribed as data.  For a candidate
:class:`~repro.sim.calibration.Calibration`, every anchor's *exact*
published configuration is re-simulated on the cluster it was measured on
(52B and 6.6B on InfiniBand, 6.6B on Ethernet) and compared against the
published Tflop/s and GB.  Residuals are *relative* errors so the 26 and
62 Tflop/s rows weigh the same, and so the throughput and memory scales
can share one objective.

The memory model does not depend on the calibration constants, so the
memory residuals are invariant across candidates; they are still part of
the residual vector because the report (and the per-anchor tolerance
bands in ``paper_data``) cover both metrics, and because a future
calibration field *may* move memory — the evaluator recomputes nothing
it can prove constant, but assumes nothing else.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analytical.memory import MemoryBreakdown, memory_model
from repro.core.schedules.base import Schedule, build_schedule
from repro.hardware.cluster import (
    DGX1_CLUSTER_64,
    DGX1_CLUSTER_64_ETHERNET,
    ClusterSpec,
)
from repro.implementations import default_implementation_for
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.models.spec import TransformerSpec
from repro.paper_data import PAPER_ANCHORS, PaperAnchor
from repro.sim.calibration import Calibration
from repro.sim.cost import CostModel
from repro.sim.cost_batch import warm_family_tables
from repro.sim.program import ProgramLowering, lower_program
from repro.sim.simulator import simulate
from repro.utils.units import GB

__all__ = [
    "AnchorEvaluator",
    "AnchorResidual",
    "FitWeights",
    "anchor_environment",
    "objective_value",
    "weighted_throughput_error",
]


@dataclass(frozen=True)
class FitWeights:
    """Relative weight of the two residual families in the objective.

    Throughput carries most of the weight: it is what the calibration
    constants actually move, while memory is checked mainly so a fitted
    calibration can never be accepted that silently breaks the memory
    reproduction (today it cannot move it at all — see module docstring).
    """

    throughput: float = 1.0
    memory: float = 0.25

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ValueError(
                f"throughput weight must be positive, got {self.throughput}"
            )
        if self.memory < 0:
            raise ValueError(
                f"memory weight must be non-negative, got {self.memory}"
            )


DEFAULT_WEIGHTS = FitWeights()


@dataclass(frozen=True)
class AnchorResidual:
    """One anchor's simulated metrics versus the published row.

    Attributes:
        anchor: The published row this residual measures against.
        throughput_tflops: Simulated Tflop/s per GPU.
        memory_gb: Simulated peak memory in GB.
        throughput_rel_err: ``(ours - paper) / paper`` for throughput.
        memory_rel_err: ``(ours - paper) / paper`` for memory.
    """

    anchor: PaperAnchor
    throughput_tflops: float
    memory_gb: float
    throughput_rel_err: float
    memory_rel_err: float

    @property
    def throughput_ratio(self) -> float:
        return 1.0 + self.throughput_rel_err

    @property
    def memory_ratio(self) -> float:
        return 1.0 + self.memory_rel_err


def anchor_environment(anchor: PaperAnchor) -> tuple[TransformerSpec, ClusterSpec]:
    """The model and cluster an anchor row was measured on."""
    spec = MODEL_52B if anchor.model == "52B" else MODEL_6_6B
    cluster = DGX1_CLUSTER_64_ETHERNET if anchor.ethernet else DGX1_CLUSTER_64
    return spec, cluster


class AnchorEvaluator:
    """Re-simulates the anchor set for many candidate calibrations.

    Everything that does not depend on the calibration is computed once
    at construction: the model/cluster of each row, its schedule, its
    memory breakdown (the memory model takes no calibration) and its
    program's lowering (:func:`repro.sim.program.lower_program`: streams,
    uids, dependencies, duration slots and the execution order the
    engine recorded for it).  One :meth:`evaluate` call then prices the
    calibration's per-stage durations in one vectorized pass per (model,
    cluster, implementation) group
    (:func:`repro.sim.cost_batch.warm_family_tables`), and per anchor
    builds the cost model, fills and checks the program's duration table,
    materializes its instructions from the lowering and runs them along
    the recorded order in one engine pass, with no wavefront sweep.
    """

    def __init__(self, anchors: Sequence[PaperAnchor] = PAPER_ANCHORS) -> None:
        if not anchors:
            raise ValueError("need at least one anchor to fit against")
        self.anchors = tuple(anchors)
        self._setups: list[
            tuple[PaperAnchor, TransformerSpec, ClusterSpec, Schedule,
                  MemoryBreakdown, ProgramLowering]
        ] = []
        # (spec, cluster, implementation) -> its anchors' stage-time
        # families (n_pp, n_loop, microbatch_size, n_tp), in order.
        families: dict[tuple, dict[tuple, None]] = {}
        for anchor in self.anchors:
            spec, cluster = anchor_environment(anchor)
            cfg = anchor.config
            implementation = default_implementation_for(cfg.schedule)
            schedule = build_schedule(
                cfg.schedule, cfg.n_pp, cfg.n_microbatches, cfg.n_loop,
                cfg.sequence_size,
            )
            memory = memory_model(spec, cfg, implementation, schedule)
            # A lowering reads no duration, so any calibration builds it.
            lowering = lower_program(
                CostModel(
                    spec=spec, config=cfg, cluster=cluster,
                    implementation=implementation,
                ),
                schedule,
            )
            self._setups.append(
                (anchor, spec, cluster, schedule, memory, lowering)
            )
            families.setdefault((spec, cluster, implementation), {})[
                (cfg.n_pp, cfg.n_loop, cfg.microbatch_size, cfg.n_tp)
            ] = None
        self._families = tuple(
            (spec, cluster, implementation, tuple(group))
            for (spec, cluster, implementation), group in families.items()
        )

    def evaluate(self, calibration: Calibration) -> tuple[AnchorResidual, ...]:
        """Simulate every anchor under ``calibration``."""
        # Seed the stage-time table, so every anchor's build hits it.
        for spec, cluster, implementation, group in self._families:
            warm_family_tables(spec, cluster, calibration, implementation, group)
        residuals = []
        for anchor, spec, cluster, schedule, memory, lowering in self._setups:
            result = simulate(
                spec, anchor.config, cluster,
                calibration=calibration, schedule=schedule, memory=memory,
                lowering=lowering,
            )
            tput = result.throughput_per_gpu / 1e12
            mem = result.memory.total / GB
            residuals.append(AnchorResidual(
                anchor=anchor,
                throughput_tflops=tput,
                memory_gb=mem,
                throughput_rel_err=(tput - anchor.throughput_tflops)
                / anchor.throughput_tflops,
                memory_rel_err=(mem - anchor.memory_gb) / anchor.memory_gb,
            ))
        return tuple(residuals)


def objective_value(
    residuals: Sequence[AnchorResidual],
    weights: FitWeights = DEFAULT_WEIGHTS,
) -> float:
    """Weighted mean of squared relative errors (the least-squares loss).

    Each anchor contributes in proportion to ``anchor.weight`` — the
    paper's own confidence in the row (Appendix E repeats some cells;
    see :class:`repro.paper_data.PaperAnchor`) — so a twice-published
    cell pulls the fit twice as hard as a once-published one.
    """
    total = 0.0
    weight_sum = 0.0
    for r in residuals:
        w = r.anchor.weight
        total += w * weights.throughput * r.throughput_rel_err**2
        total += w * weights.memory * r.memory_rel_err**2
        weight_sum += w * (weights.throughput + weights.memory)
    return total / weight_sum


def weighted_throughput_error(
    residuals: Sequence[AnchorResidual],
    anchor_weights: Sequence[float] | None = None,
) -> float:
    """Weighted mean absolute relative throughput error — the headline metric.

    This is the number the ``calibrate`` CLI reports before and after
    fitting, and the one the acceptance check requires the fit to
    strictly reduce versus the hand-tuned defaults.  ``anchor_weights``
    defaults to the anchors' own confidence weights
    (:class:`repro.paper_data.PaperAnchor.weight`: twice-published cells
    count double); pass an explicit sequence to override.
    """
    if anchor_weights is None:
        anchor_weights = [r.anchor.weight for r in residuals]
    if len(anchor_weights) != len(residuals):
        raise ValueError(
            f"{len(anchor_weights)} weights for {len(residuals)} residuals"
        )
    total_weight = sum(anchor_weights)
    if total_weight <= 0:
        raise ValueError("anchor weights must sum to a positive value")
    return (
        sum(
            w * abs(r.throughput_rel_err)
            for w, r in zip(anchor_weights, residuals)
        )
        / total_weight
    )
