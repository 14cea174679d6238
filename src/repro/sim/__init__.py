"""Discrete-event cluster simulator — the paper's testbed substitute.

The simulator executes a pipeline schedule's per-rank instruction streams
on a model of the DGX-1 cluster: each pipeline rank has a compute stream,
a pipeline-communication stream and a data-parallel-communication stream
(mirroring the CUDA streams of Figure 4's odd rows).  Op durations come
from a calibrated cost model; *which stream an operation runs on* — i.e.
whether communication overlaps computation — is the implementation policy
the paper studies, so it is explicit (:class:`ImplementationProfile`).
"""

from repro.implementations import (
    MEGATRON_LM,
    OUR_IMPLEMENTATION,
    ImplementationProfile,
    default_implementation_for,
)
from repro.sim.calibration import Calibration
from repro.sim.cost import CostModel
from repro.sim.engine import EngineDeadlock, Instruction, run_streams
from repro.sim.simulator import SimulationResult, simulate
from repro.sim.timeline import TimelineEvent

__all__ = [
    "Calibration",
    "CostModel",
    "EngineDeadlock",
    "ImplementationProfile",
    "Instruction",
    "MEGATRON_LM",
    "OUR_IMPLEMENTATION",
    "SimulationResult",
    "TimelineEvent",
    "default_implementation_for",
    "run_streams",
    "simulate",
]
