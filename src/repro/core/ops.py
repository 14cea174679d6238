"""Schedule instruction set.

A pipeline schedule is, per device, an ordered list of *compute*
instructions: forward or backward of one micro-batch through one stage.
Communication (activation send/recv, gradient reduction, weight
reconstruction) is derived from the compute order by the consumers — the
event simulator and the NumPy runtime — because *when* those operations
run relative to compute is exactly the policy difference between
schedules and implementations that the paper studies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpKind(enum.Enum):
    """Kind of compute instruction."""

    FORWARD = "F"
    BACKWARD = "B"


@dataclass(frozen=True, order=True, slots=True)
class ComputeOp:
    """One unit of pipeline work: a micro-batch through a stage.

    Attributes:
        kind: Forward or backward.
        microbatch: Micro-batch index in ``[0, N_mb)``.
        stage: Pipeline stage index in ``[0, N_stage)``.
    """

    kind: OpKind
    microbatch: int
    stage: int

    def __post_init__(self) -> None:
        if self.microbatch < 0:
            raise ValueError(f"microbatch must be >= 0, got {self.microbatch}")
        if self.stage < 0:
            raise ValueError(f"stage must be >= 0, got {self.stage}")

    @property
    def is_forward(self) -> bool:
        return self.kind is OpKind.FORWARD

    def __str__(self) -> str:
        return f"{self.kind.value}(mb={self.microbatch}, s={self.stage})"


def forward(microbatch: int, stage: int) -> ComputeOp:
    """Shorthand constructor for a forward op."""
    return ComputeOp(OpKind.FORWARD, microbatch, stage)


def backward(microbatch: int, stage: int) -> ComputeOp:
    """Shorthand constructor for a backward op."""
    return ComputeOp(OpKind.BACKWARD, microbatch, stage)
