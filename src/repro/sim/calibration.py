"""Free parameters of the cost model and their calibration targets.

The simulator reproduces *shape* (method ordering, crossovers, rough
factors), not absolute Tflop/s; only two phenomenological parameters are
fitted, both documented here:

1. Kernel efficiency: matmul kernels reach a fraction of peak that grows
   with thread-level parallelism.  We model it as a product of two
   saturating terms, one in tokens per micro-batch (``S_mb * S_seq``) and
   one in per-GPU width (``S_hidden / N_TP``).  Calibrated so the 52B
   model lands in the paper's 36-55 Tflop/s band and the 6.6B model shows
   the stronger micro-batch-size sensitivity reported in Section 5.3.

2. Network latency / synchronization overhead (on the NetworkSpec): set so
   that beta_net ~ 4 on InfiniBand and ~32 on Ethernet, and so that the
   non-overlapped depth-first schedule loses ~40% at N_loop = 8
   (Figure 6b) while the overlapped breadth-first schedule loses little.

The hand-tuned defaults below are no longer the only option: the
:mod:`repro.fit` subsystem least-squares fits these constants to the
paper's published Appendix E rows (``repro-experiments calibrate``), and
experiments can run under the committed fit via ``--calibration
fitted_calibration.json`` — see ``docs/calibration.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Calibration:
    """Tunable cost-model constants.

    Attributes:
        kernel_efficiency_max: Asymptotic fraction of peak flop/s that
            large matmuls reach on this hardware generation.
        tokens_half_point: Tokens per micro-batch at which the
            thread-level-parallelism term reaches half of its asymptote.
        width_half_point: Per-GPU hidden width (``S_hidden / N_TP``) at
            which the width term reaches half of its asymptote.
        optimizer_bytes_per_param: Traffic per parameter charged to the
            (memory-bound) optimizer step: read+write fp32 state.
        fixed_step_overhead: Per-step constant (data loading, logging,
            Python) in seconds.
        network_overhead_scale: Multiplier on the *overhead* family of
            the ``NetworkSpec`` constants — per-message latency, the
            non-overlapped sync penalty, and the overlapped launch cost
            — on the pipeline- and tensor-parallel paths.  The paper's
            NCCL measurements bundle protocol overheads the nominal
            specs understate, most visibly on Ethernet where the
            Appendix E anchors otherwise run hot; fitting one shared
            scale tightens them without touching bandwidth terms.  The
            default 1.0 leaves every duration bit-identical to the
            unscaled model, and the data-parallel collective path never
            reads it (``comm_time_table`` stays calibration-free).
    """

    kernel_efficiency_max: float = 0.68
    tokens_half_point: float = 150.0
    width_half_point: float = 200.0
    optimizer_bytes_per_param: float = 32.0
    fixed_step_overhead: float = 5e-3
    network_overhead_scale: float = 1.0

    def __post_init__(self) -> None:
        # Reject bad constants at construction, not deep inside
        # kernel_efficiency(): a non-positive half-point or max would
        # otherwise yield negative "efficiencies" (and nonsense search
        # results) long after the mistake.  The calibration fitter's
        # bound handling relies on every in-bounds vector constructing.
        # The range checks below reject by comparison, which NaN never
        # satisfies and infinity satisfies only against an upper bound,
        # so finiteness is checked first.
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.kernel_efficiency_max <= 0 or self.kernel_efficiency_max > 1:
            raise ValueError(
                "kernel_efficiency_max must be in (0, 1], got "
                f"{self.kernel_efficiency_max}"
            )
        if self.tokens_half_point <= 0:
            raise ValueError(
                f"tokens_half_point must be positive, got {self.tokens_half_point}"
            )
        if self.width_half_point <= 0:
            raise ValueError(
                f"width_half_point must be positive, got {self.width_half_point}"
            )
        if self.optimizer_bytes_per_param <= 0:
            raise ValueError(
                "optimizer_bytes_per_param must be positive, got "
                f"{self.optimizer_bytes_per_param}"
            )
        if self.fixed_step_overhead < 0:
            raise ValueError(
                "fixed_step_overhead must be non-negative, got "
                f"{self.fixed_step_overhead}"
            )
        if self.network_overhead_scale <= 0:
            raise ValueError(
                "network_overhead_scale must be positive, got "
                f"{self.network_overhead_scale}"
            )

    def kernel_efficiency(self, tokens_per_microbatch: float, width_per_gpu: float) -> float:
        """Fraction of peak flop/s achieved by compute kernels.

        Saturating in both arguments; strictly positive and below
        ``kernel_efficiency_max``.
        """
        if tokens_per_microbatch <= 0 or width_per_gpu <= 0:
            raise ValueError("kernel shape arguments must be positive")
        tokens_term = tokens_per_microbatch / (tokens_per_microbatch + self.tokens_half_point)
        width_term = width_per_gpu / (width_per_gpu + self.width_half_point)
        return self.kernel_efficiency_max * tokens_term * width_term


#: Default calibration used by all experiments.
DEFAULT_CALIBRATION = Calibration()
