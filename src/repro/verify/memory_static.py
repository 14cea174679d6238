"""Static activation high-water mark by abstract interpretation.

The memory model (:mod:`repro.analytical.memory`) charges checkpoint
memory for the peak number of in-flight (micro-batch, stage) forwards,
which it reads off the *schedule*.  This module re-derives that peak by
abstract interpretation over the *lowered instruction stream*: walking
each rank's compute queue in execution order with one abstract value —
the live-activation counter (+1 at a forward, -1 at the matching
backward) — and recording its high-water mark.

The two derivations must agree: the program's per-rank peak is checked
against :meth:`~repro.core.schedules.base.Schedule.max_in_flight`
(P401), and the full memory total recomputed from the program-derived
peaks is checked against :func:`repro.analytical.memory.memory_model`
within tolerance (P402).  A corruption between schedule and program —
a dropped backward, a duplicated forward, a reorder that extends an
activation's lifetime — shows up as a divergence here even when the
op multiset is still complete.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import cast

from repro.analytical.memory import memory_model
from repro.core.schedules.base import Schedule
from repro.implementations import ImplementationProfile
from repro.models.spec import TransformerSpec
from repro.parallel.config import ParallelConfig
from repro.sim.engine import Instruction
from repro.verify.report import Finding

__all__ = ["check_static_memory", "static_in_flight"]

#: Relative tolerance for the analytical cross-check.  The two
#: derivations compute the same closed form from the same peak, so any
#: real divergence is large; the epsilon only absorbs float summation
#: order.
MEMORY_TOLERANCE = 1e-9


def static_in_flight(
    streams: Mapping[tuple[int, str], Sequence[Instruction]], n_pp: int
) -> list[int]:
    """Per-rank activation high-water mark of a lowered program.

    Counts, along each rank's compute queue, forwards whose backward
    has not yet executed.  A backward without a prior forward is
    clamped at zero here (it is reported separately as P105); the
    high-water mark is what drives checkpoint memory.
    """
    peaks: list[int] = []
    for rank in range(n_pp):
        live = 0
        peak = 0
        for instr in streams.get((rank, "compute"), ()):
            uid = instr.uid
            if not (isinstance(uid, tuple) and len(uid) == 3):
                continue
            if uid[0] == "F":
                live += 1
                peak = max(peak, live)
            elif uid[0] == "B":
                live = max(live - 1, 0)
        peaks.append(peak)
    return peaks


class _StaticInFlight:
    """Schedule stand-in exposing the program-derived in-flight peaks.

    :func:`repro.analytical.memory.memory_model` consumes exactly one
    schedule property — ``max_in_flight(rank)`` — so this proxy lets
    the analytical model re-price memory from the abstract
    interpretation's result.
    """

    def __init__(self, peaks: Sequence[int]) -> None:
        self._peaks = list(peaks)

    def max_in_flight(self, rank: int) -> int:
        return self._peaks[rank]


def check_static_memory(
    streams: Mapping[tuple[int, str], Sequence[Instruction]],
    schedule: Schedule,
    spec: TransformerSpec,
    config: ParallelConfig,
    implementation: ImplementationProfile,
    tolerance: float = MEMORY_TOLERANCE,
) -> list[Finding]:
    """Cross-check program-derived peaks against the analytical model."""
    findings: list[Finding] = []
    peaks = static_in_flight(streams, schedule.n_pp)

    for rank, peak in enumerate(peaks):
        expected = schedule.max_in_flight(rank)
        if peak != expected:
            findings.append(
                Finding(
                    rule="P401",
                    location=f"rank {rank}/compute",
                    message=(
                        f"static activation high-water mark is {peak} "
                        f"in-flight micro-batches, the schedule says "
                        f"{expected}"
                    ),
                )
            )

    analytical = memory_model(spec, config, implementation, schedule)
    static = memory_model(
        spec, config, implementation, cast(Schedule, _StaticInFlight(peaks))
    )
    if abs(static.total - analytical.total) > tolerance * max(
        analytical.total, 1.0
    ):
        findings.append(
            Finding(
                rule="P402",
                location="program",
                message=(
                    "static memory total diverges from the analytical "
                    f"model: {static.total:.6e} B (from the instruction "
                    f"stream) vs {analytical.total:.6e} B (from the "
                    "schedule)"
                ),
            )
        )
    return findings
