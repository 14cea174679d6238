"""High-level simulation API: one training step of one configuration.

:func:`simulate` builds the schedule, lowers it to instruction streams,
executes them on the event engine and reports the paper's metrics:
step time, per-GPU throughput (Eq. 11 flops over time), utilization,
per-category busy-time breakdown and the memory model's peak.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytical.memory import MemoryBreakdown, memory_model
from repro.core.schedules.base import Schedule, build_schedule
from repro.hardware.cluster import ClusterSpec
from repro.implementations import (
    ImplementationProfile,
    default_implementation_for,
)
from repro.models.spec import TransformerSpec
from repro.parallel.config import ParallelConfig
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.cost import CostModel
from repro.sim.engine import EngineResult, run_streams, run_streams_delta
from repro.sim.program import ProgramLowering, build_program
from repro.sim.timeline import TimelineEvent
from repro.utils import gc_paused


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated training step.

    Attributes:
        config: The configuration simulated.
        implementation_name: Which library profile ran it.
        step_time: Batch time in seconds (includes the fixed step overhead).
        throughput_per_gpu: Model flop/s per GPU (the Appendix E metric).
        utilization: ``throughput_per_gpu / peak_flops``.
        compute_busy: Mean busy seconds of the compute streams.
        pp_comm_busy: Mean busy seconds of pipeline communication.
        dp_comm_busy: Mean busy seconds of data-parallel communication.
        bubble_fraction: Mean compute-stream idle share of the engine
            makespan.  Measured against the makespan, not ``step_time``:
            the fixed step overhead is not pipeline idle time and would
            inflate the bubble for short steps.
        memory: Peak-memory breakdown for this configuration.
        timeline: Executed events (empty if ``record_events`` was False).
    """

    config: ParallelConfig
    implementation_name: str
    step_time: float
    throughput_per_gpu: float
    utilization: float
    compute_busy: float
    pp_comm_busy: float
    dp_comm_busy: float
    bubble_fraction: float
    memory: MemoryBreakdown
    timeline: tuple[TimelineEvent, ...]


@dataclass(frozen=True)
class SimulationBase:
    """Reusable artifacts of one simulation, for sibling delta replay.

    Returned by :func:`simulate_delta` and fed back into it: the built
    instruction streams and the engine result are exactly what
    :func:`repro.sim.engine.run_streams_delta` diffs a sibling program
    against.  Holding one of these per family key is the search's whole
    delta-replay state (see ``repro.search.grid``).

    Attributes:
        streams: The label-free instruction queues of the base program.
        engine_result: The engine outcome those streams produced.
    """

    streams: dict
    engine_result: EngineResult


def simulate(
    spec: TransformerSpec,
    config: ParallelConfig,
    cluster: ClusterSpec,
    implementation: ImplementationProfile | None = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    schedule: Schedule | None = None,
    record_events: bool = False,
    memory: MemoryBreakdown | None = None,
    cost: CostModel | None = None,
    lowering: ProgramLowering | None = None,
) -> SimulationResult:
    """Simulate one training step.

    Args:
        spec: Model to train.
        config: Distributed configuration (validated against the model and
            cluster).
        cluster: Hardware description.
        implementation: Library profile; defaults to the one the paper
            used for the config's schedule (ours for GPipe/breadth-first,
            Megatron-LM for 1F1B/depth-first).
        calibration: Cost-model constants.
        schedule: Pre-built schedule (rebuilt from the config if omitted).
        record_events: Keep the full timeline (needed for Figure 4).
            When False the program is built without labels and the engine
            allocates no timeline objects — the search fast path.
        memory: Pre-computed memory breakdown (recomputed if omitted).
            The search evaluates memory *before* simulating to exclude
            configurations, and passes the result here.
        cost: Pre-built cost model for exactly these inputs (rebuilt if
            omitted).  The search's bound stage already constructed one
            per surviving candidate and passes it here.  Its
            implementation is authoritative: passing a conflicting
            ``implementation`` raises rather than silently mixing the
            cost model's program with another profile's memory/labels.
            A cost built for another ``spec``, ``config``, ``cluster`` or
            ``calibration`` than the ones passed raises ``ValueError``
            naming the field.
        lowering: The schedule's :func:`repro.sim.program.lower_program`
            result, priced instead of walking the schedule again (see
            :func:`repro.sim.program.build_program`) and run along its
            recorded execution order instead of on the engine's
            wavefront.  Requires ``record_events=False``.  The
            calibration fit passes one per anchor; the result is the same
            either way.

    The step runs with the cyclic garbage collector paused
    (:func:`repro.utils.gc_paused`): building and running a program
    creates no reference cycles, and the program and the engine result
    are freed by reference counting before the collector comes back on.
    """
    with gc_paused():
        return _simulate(
            spec, config, cluster, implementation, calibration, schedule,
            record_events, memory, cost, lowering,
        )


def _simulate(
    spec: TransformerSpec,
    config: ParallelConfig,
    cluster: ClusterSpec,
    implementation: ImplementationProfile | None,
    calibration: Calibration,
    schedule: Schedule | None,
    record_events: bool,
    memory: MemoryBreakdown | None,
    cost: CostModel | None,
    lowering: ProgramLowering | None,
) -> SimulationResult:
    """:func:`simulate`'s body, run with the collector paused."""
    if cost is not None:
        if implementation is not None and implementation is not cost.implementation:
            raise ValueError(
                f"cost was built for {cost.implementation.name}, but "
                f"implementation={implementation.name} was also passed"
            )
        # Identity first: the search passes the very objects its cost
        # models were built from, so the check costs it four `is` tests.
        for name, passed in (
            ("calibration", calibration),
            ("config", config),
            ("spec", spec),
            ("cluster", cluster),
        ):
            built = getattr(cost, name)
            if built is not passed and built != passed:
                raise ValueError(
                    f"cost was built for another {name} than the one passed"
                )
        implementation = cost.implementation
    elif implementation is None:
        implementation = default_implementation_for(config.schedule)
    if cost is None:
        cost = CostModel(
            spec=spec,
            config=config,
            cluster=cluster,
            implementation=implementation,
            calibration=calibration,
        )
    if schedule is None:
        schedule = build_schedule(
            config.schedule,
            config.n_pp,
            config.n_microbatches,
            config.n_loop,
            config.sequence_size,
        )
    streams = build_program(
        cost, schedule, record_events=record_events, lowering=lowering
    )
    result = run_streams(
        streams,
        record_events=record_events,
        order=None if lowering is None else lowering.order,
    )
    if memory is None:
        memory = memory_model(spec, config, implementation, schedule)
    return _assemble_result(cost, memory, result)


def _assemble_result(
    cost: CostModel, memory: MemoryBreakdown, result: EngineResult
) -> SimulationResult:
    """Derive the reported metrics from an engine outcome.

    Shared verbatim by :func:`simulate` and :func:`simulate_delta`, so a
    delta-replayed engine result (itself bit-exact, see
    :func:`repro.sim.engine.run_streams_delta`) yields a byte-identical
    :class:`SimulationResult`.
    """
    config = cost.config
    calibration = cost.calibration
    step_time = result.makespan + calibration.fixed_step_overhead
    n_pp = config.n_pp
    compute_busy = (
        sum(result.stream_busy.get((r, "compute"), 0.0) for r in range(n_pp)) / n_pp
    )
    pp_busy = sum(result.stream_busy.get((r, "pp"), 0.0) for r in range(n_pp)) / n_pp
    dp_busy = sum(result.stream_busy.get((r, "dp"), 0.0) for r in range(n_pp)) / n_pp

    return SimulationResult(
        config=config,
        implementation_name=cost.implementation.name,
        step_time=step_time,
        throughput_per_gpu=cost.throughput_per_gpu(step_time),
        utilization=cost.utilization(step_time),
        compute_busy=compute_busy,
        pp_comm_busy=pp_busy,
        dp_comm_busy=dp_busy,
        bubble_fraction=(
            1.0 - compute_busy / result.makespan if result.makespan > 0 else 0.0
        ),
        memory=memory,
        timeline=tuple(result.events),
    )


def simulate_delta(
    cost: CostModel,
    schedule: Schedule,
    memory: MemoryBreakdown,
    *,
    base: SimulationBase | None,
) -> tuple[SimulationResult, SimulationBase, bool]:
    """Simulate one step, replaying only the event-graph delta from a sibling.

    The incremental path of the batched grid walk, which has already
    built every input: the candidate's cost model, its schedule and its
    memory breakdown.  When ``base`` is the :class:`SimulationBase` of a
    *sibling* configuration (same family, one axis changed — e.g. DP0 vs
    DP_PS sharding of the same GPipe cell), only the instruction suffix
    that actually differs is re-executed; identical prefixes keep their
    timings.  Falls back to a full :func:`repro.sim.engine.run_streams` —
    same streams, same arithmetic — when ``base`` is ``None`` or the
    delta check finds the programs too different, so the returned result
    is **bit-identical** to ``simulate(...)`` with the same inputs either
    way (the parity suite in ``tests/test_simulate_delta.py`` holds it
    there).

    Returns ``(result, new_base, replayed)``: ``new_base`` carries this
    program's streams and engine result for the next sibling, and
    ``replayed`` reports whether the delta path was actually taken (the
    search's ``search.delta.*`` obs counters read it).

    Always builds label-free programs (``record_events=False``
    semantics): delta replay serves the search fast path, which never
    renders timelines.
    """
    streams = build_program(cost, schedule, record_events=False)
    result: EngineResult | None = None
    if base is not None:
        result = run_streams_delta(streams, base.streams, base.engine_result)
    replayed = result is not None
    if result is None:
        result = run_streams(streams, record_events=False)
    new_base = SimulationBase(streams=streams, engine_result=result)
    return _assemble_result(cost, memory, result), new_base, replayed
