"""Schedule validation and logical-time analysis.

:func:`lower_schedule` lowers a schedule to one compute stream per rank:
the program builder's ``(tag, microbatch, stage)`` uids, the cross-stage
dataflow dependencies and unit op times.  :func:`analyze_schedule`
rejects a broken schedule with the first finding of the static
verifier's completeness check (each (micro-batch, stage) computed
exactly once, on the right rank, forward before backward), then times
the lowering on the simulator's engine, :func:`repro.sim.engine
.run_streams`, which also proves it deadlock-free.  With unit forward
time and 2x backward time the result is an idealized (zero
communication cost) timing model that reproduces the pipeline-bubble
formulas, Eqs. (4) and (9).  The NumPy runtime
(:mod:`repro.runtime.executor`) runs its ops in the finish-time order
of the same lowering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ops import OpKind
from repro.core.schedules.base import Schedule
from repro.sim.engine import EngineDeadlock, Instruction, run_streams
from repro.verify.labels import op_label


class ScheduleError(Exception):
    """A schedule violated a structural invariant or deadlocked.

    Messages label the offending op through
    :func:`repro.verify.labels.op_label`, so every diagnostic carries
    the full (rank, op kind, stage, micro-batch) coordinate in the same
    form the static verifier's findings use.
    """


@dataclass(frozen=True)
class ScheduleAnalysis:
    """Logical-time execution summary of a valid schedule.

    Attributes:
        makespan: Completion time of the last op (logical units).
        compute_per_device: Busy time of each rank.
        bubble_fraction: Idle overhead of the busiest rank relative to its
            busy time — comparable to Eqs. (4)/(9) when stage sizes are
            uniform and communication is free.
        peak_in_flight: Max live activations over ranks (memory proxy).
        finish_times: Completion time of every op, keyed by
            ``(kind, microbatch, stage)``.
    """

    makespan: float
    compute_per_device: tuple[float, ...]
    bubble_fraction: float
    peak_in_flight: int
    finish_times: dict[tuple[OpKind, int, int], float]


def lower_schedule(
    schedule: Schedule,
    forward_time: float = 1.0,
    backward_time: float = 2.0,
) -> dict[tuple[int, str], list[Instruction]]:
    """One ``(rank, "compute")`` instruction stream per rank, in schedule order.

    Forward needs the previous stage's forward output; backward needs
    this stage's forward activation and the next stage's backward
    gradient.  Labels carry each op's rank and stream position, so the
    engine's deadlock report names them as the verifier does.
    """
    last_stage = schedule.n_stages - 1
    streams: dict[tuple[int, str], list[Instruction]] = {}
    for rank, order in enumerate(schedule.device_orders):
        queue = []
        for position, op in enumerate(order):
            mb, stage = op.microbatch, op.stage
            if op.kind is OpKind.FORWARD:
                duration = forward_time
                deps: tuple = (("F", mb, stage - 1),) if stage > 0 else ()
            else:
                duration = backward_time
                deps = (("F", mb, stage),)
                if stage < last_stage:
                    deps += (("B", mb, stage + 1),)
            label = op_label(op.kind, mb, stage, rank=rank, position=position)
            queue.append(
                Instruction((op.kind.value, mb, stage), duration, deps, label)
            )
        streams[(rank, "compute")] = queue
    return streams


def analyze_schedule(
    schedule: Schedule,
    forward_time: float = 1.0,
    backward_time: float = 2.0,
) -> ScheduleAnalysis:
    """Execute the schedule with a logical clock; raise on a broken schedule.

    Each rank consumes its stream strictly in order (as a real static
    pipeline program does): the head op starts once its dependencies have
    finished, and blocks the rest of the stream until then.  If every
    unfinished rank is blocked, the schedule deadlocks and the error lists
    each rank's blocked op with the ops it waits on.
    """
    # Lazy: every importer of repro.core would otherwise load the
    # verifier, and the search stack never validates schedules.
    from repro.verify.program import check_completeness

    if forward_time <= 0 or backward_time <= 0:
        raise ValueError("op durations must be positive")
    streams = lower_schedule(schedule, forward_time, backward_time)
    findings = check_completeness(streams, schedule)
    if findings:
        raise ScheduleError(findings[0].message)
    try:
        result = run_streams(streams, record_events=False)
    except EngineDeadlock as exc:
        raise ScheduleError(str(exc)) from exc

    busy = tuple(result.stream_busy.values())
    return ScheduleAnalysis(
        makespan=result.makespan,
        compute_per_device=busy,
        bubble_fraction=result.makespan / max(busy) - 1.0,
        peak_in_flight=schedule.peak_in_flight(),
        finish_times={
            (OpKind(tag), mb, stage): end
            for (tag, mb, stage), end in result.finish_times.items()
        },
    )


def validate_schedule(schedule: Schedule) -> ScheduleAnalysis:
    """Full validation: structure plus deadlock-freedom.

    Returns the logical-time analysis so callers get the bubble fraction
    and peak in-flight count for free.
    """
    return analyze_schedule(schedule)
